"""Durable round-state checkpoints for schedulable morph jobs.

A timed-out or killed job should resume from its last completed round,
not restart from scratch.  The engine side of that contract lives in
:class:`repro.core.engine.EngineCheckpoint` (round counter, morph
statistics, :class:`~repro.core.counters.OpCounter`, RNG state, and a
caller payload captured at a consistent between-rounds point); this
module makes those checkpoints *durable* across process boundaries and
crashes:

* :func:`dumps_state` / :func:`loads_state` — byte-level round-trip
  (pickle; every field of an engine checkpoint is plain data);
* :class:`CheckpointStore` — per-job checkpoint files under a spool
  directory: one atomically replaced slot per job, plus an optional
  versioned history (used by :mod:`repro.sessions` batch streams)
  pruned to keep-latest-N so long-lived sessions never leak spool
  disk.  Every write goes through :func:`repro.storage
  .atomic_write_bytes` — temp file, fsync, ``os.replace``, directory
  fsync — so a worker killed mid-write (or a power loss) can never
  leave a truncated checkpoint where the next attempt would trip over
  it, and every save is a deterministic disk-fault site for the
  :mod:`repro.serve.faults` ``torn_write``/``enospc`` injection the
  durability property suite drives.  A corrupt or unreadable file is
  *quarantined* on load — renamed to ``<name>.ckpt.corrupt`` so the
  evidence survives, mirroring :class:`repro.tune.TuningCache`.
  :meth:`CheckpointStore.load` then raises the typed
  :class:`repro.errors.CorruptCheckpoint`;
  :meth:`CheckpointStore.load_latest`, which every resuming caller
  uses, walks back to the newest checkpoint that still reads.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from .. import storage
from ..errors import CorruptCheckpoint

__all__ = ["CheckpointStore", "dumps_state", "loads_state"]


def dumps_state(state: object) -> bytes:
    """Serialize a checkpoint payload to bytes."""
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def loads_state(data: bytes) -> object:
    """Inverse of :func:`dumps_state`."""
    return pickle.loads(data)


class CheckpointStore:
    """Durable checkpoints per job name, under ``root``.

    Two shapes coexist:

    * the **unversioned slot** (``<job>.ckpt``) — one file per job,
      atomically replaced on every :meth:`save`; this is what the
      pool's retry loop uses, and it cannot grow;
    * **versioned history** (``<job>@NNNNNNNN.ckpt``) — written when
      :meth:`save` is given a ``version`` (a gateway worker saves one
      per applied session batch, the sessions CLI one per cadence).  To
      keep a session from leaking spool disk over thousands of
      batches, every versioned save *prunes* superseded versions down
      to ``keep_latest`` (newest-N survive; the unversioned slot is
      never pruned).
    """

    def __init__(self, root: str | Path, *, keep_latest: int = 3) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep_latest = max(1, int(keep_latest))

    def _safe(self, job_name: str) -> str:
        return "".join(c if (c.isalnum() or c in "-_.") else "_"
                       for c in job_name)

    def path(self, job_name: str, version: int | None = None) -> Path:
        if version is None:
            return self.root / f"{self._safe(job_name)}.ckpt"
        return self.root / f"{self._safe(job_name)}@{int(version):08d}.ckpt"

    def versions(self, job_name: str) -> list[int]:
        """Versions on disk for ``job_name``, oldest first."""
        prefix = f"{self._safe(job_name)}@"
        out = []
        for p in self.root.glob(f"{prefix}*.ckpt"):
            tail = p.name[len(prefix):-len(".ckpt")]
            if tail.isdigit():
                out.append(int(tail))
        return sorted(out)

    def save(self, job_name: str, state: object,
             version: int | None = None) -> Path:
        """Atomically write ``job_name``'s checkpoint with ``state``.

        With ``version``, the checkpoint lands in the job's versioned
        history and older versions beyond ``keep_latest`` are pruned.
        """
        path = self.path(job_name, version)
        storage.atomic_write_bytes(path, dumps_state(state))
        if version is not None:
            self.prune(job_name)
        return path

    def prune(self, job_name: str, keep_latest: int | None = None) -> int:
        """Drop superseded versioned checkpoints; returns how many."""
        keep = self.keep_latest if keep_latest is None \
            else max(1, int(keep_latest))
        stale = self.versions(job_name)[:-keep]
        for version in stale:
            self.path(job_name, version).unlink(missing_ok=True)
        return len(stale)

    def load(self, job_name: str, version: int | None = None):
        """The requested checkpoint, or ``None`` when none was saved.

        ``version=None`` prefers the newest versioned checkpoint and
        falls back to the unversioned slot.  A file that exists but
        cannot be unpickled is quarantined to ``<name>.ckpt.corrupt``
        and reported as the typed
        :class:`~repro.errors.CorruptCheckpoint` — never silently
        swallowed, and never left in place to poison later attempts.
        """
        if version is None:
            versions = self.versions(job_name)
            path = (self.path(job_name, versions[-1]) if versions
                    else self.path(job_name))
        else:
            path = self.path(job_name, version)
        if not path.exists():
            return None
        try:
            return loads_state(path.read_bytes())
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, OSError) as exc:
            quarantined = storage.quarantine(path)
            raise CorruptCheckpoint(
                f"checkpoint for job {job_name!r} is corrupt "
                f"({type(exc).__name__}: {exc}); quarantined to "
                f"{quarantined}", path=path,
                quarantined=quarantined) from exc

    def load_latest(self, job_name: str):
        """The newest checkpoint of ``job_name`` that reads back, or
        ``None`` when none does.

        Each unreadable file is quarantined on the way (:meth:`load`
        moves it out of the ``*.ckpt`` glob), so every pass removes one
        file and the walk ends: newest version first, then older ones,
        then the unversioned slot.
        """
        while True:
            try:
                return self.load(job_name)
            except CorruptCheckpoint:
                continue

    def clear(self, job_name: str) -> None:
        """Drop ``job_name``'s checkpoints (called after a clean finish),
        the unversioned slot and the whole versioned history alike."""
        self.path(job_name).unlink(missing_ok=True)
        for version in self.versions(job_name):
            self.path(job_name, version).unlink(missing_ok=True)

    def clear_all(self) -> None:
        for p in self.root.glob("*.ckpt"):
            p.unlink(missing_ok=True)
