"""repro.storage — one durable-write discipline for every artifact.

Three subsystems grew their own temp-file + ``os.replace`` writers
(serve checkpoints, the tune cache, scenario files), and none of them
fsync'd — so the atomicity they promised held against a *process*
crash but not against power loss: ``os.replace`` makes the rename
atomic, but without fsync-file-then-fsync-dir ordering a crash can
publish a name whose *bytes* never reached the platter.  This module
is the single implementation they (and the gateway's write-ahead
journal) now share:

* :func:`atomic_write_bytes` / :func:`atomic_write_json` — write a
  temp file next to the target, ``fsync`` the file, ``os.replace`` it
  over the target, then ``fsync`` the directory, in that order.  The
  published path therefore only ever holds the complete old version or
  the complete new version — never a mix — and the new version is
  durable once the call returns.
* :func:`fsync_dir` — best-effort directory fsync (some filesystems
  refuse it; that is their durability bug, not a crash of ours).
* :func:`quarantine` — the shared move-the-evidence-aside rename every
  loader uses before raising its typed
  :class:`~repro.errors.ArtifactError`.

Every write is also a **disk-fault site**: if a
:class:`repro.vgpu.faults.FaultInjector` is active (in the
:data:`repro.vgpu.instrument.FAULTS` slot — the job body installs one
per job attempt), the write consults it and acts out the fired kind at
the exact protocol step it models — ``enospc`` and ``torn_write`` cut
the temp write short, ``replace_crash`` dies before the rename,
``fsync_lost`` loses the rename to a power cut.  None of them can touch
the published file.  The property suite in ``tests/test_storage.py``
kills a write at every site and asserts old-or-new for every store
built on this module.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import DiskFull, TornWrite
from .vgpu.faults import FaultInjected
from .vgpu.instrument import FAULTS

__all__ = ["atomic_write_bytes", "atomic_write_json", "fsync_dir",
           "quarantine"]


def fsync_dir(path: str | Path) -> None:
    """Best-effort fsync of directory ``path`` (makes a just-renamed
    entry durable).  Filesystems that refuse directory fsync are
    silently tolerated."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _torn(data: bytes) -> bytes:
    """The deterministic torn prefix a cut-short write leaves behind."""
    return data[: len(data) // 2]


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically and durably publish ``data`` at ``path``.

    Protocol: write ``<name>.tmp`` beside the target, fsync it, rename
    it over the target with ``os.replace``, fsync the directory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    injector = FAULTS.current
    kind = injector.on_write(path) if injector is not None else None

    if kind == "enospc":
        # Partial write until the disk filled; the error returns to the
        # caller, so the tmp is what a real ENOSPC leaves behind.
        tmp.write_bytes(_torn(data))
        raise DiskFull(f"injected ENOSPC writing {path} "
                       f"(write event {injector.writes})",
                       path=path, operation="write")
    if kind == "torn_write":
        # Process death mid-write: a torn tmp, nothing published.
        tmp.write_bytes(_torn(data))
        raise TornWrite(f"injected torn write at {path} "
                        f"(write event {injector.writes})",
                        path=path, operation="write")

    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())

    if kind in ("replace_crash", "fsync_lost"):
        # Death before the publishing rename, or a power cut that loses
        # it: the tmp bytes were fsync'd, so the complete tmp survives
        # and the target still holds the old version.
        raise FaultInjected(
            f"injected {kind} before the publish rename of {path} "
            f"(write event {injector.writes})")

    os.replace(tmp, path)
    fsync_dir(path.parent)
    return path


def atomic_write_json(path: str | Path, obj) -> Path:
    """:func:`atomic_write_bytes` for canonical JSON documents (sorted
    keys, one-space indent, trailing newline — byte-identical for equal
    inputs, the serialization the tune cache and scenarios pin)."""
    text = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    return atomic_write_bytes(path, text.encode())


def quarantine(path: str | Path, suffix: str = ".corrupt") -> Path | None:
    """Move a corrupt artifact aside (never delete the evidence).

    Returns the quarantined path, or ``None`` when even the rename
    failed and the file had to be dropped to keep the slot usable (the
    shared last resort of every loader).
    """
    path = Path(path)
    target = path.with_name(path.name + suffix)
    try:
        os.replace(path, target)
        return target
    except OSError:
        path.unlink(missing_ok=True)
        return None
