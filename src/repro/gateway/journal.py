"""The gateway's write-ahead journal (schema ``repro.journal/1``).

Everything the gateway promises to remember across a crash goes through
this file *before* the promise is made: a submission is journaled at
**admit** (before its message touches a worker queue) and at **done**
with the full recorded outcome, and a closed session at
**session_close**.  Those are exactly the records
:func:`repro.gateway.recovery.recover_state` folds on restart back into
the admission ledger, the sticky-session table, and the requeue list —
answering repeated ``Idempotency-Key`` submissions from the recorded
``done`` payloads instead of re-executing.

Format — one record per line, append-only::

    <crc32:08x> <canonical-compact-JSON>\\n

The checksum covers the JSON bytes, so replay distinguishes the two
corruption shapes that matter:

* a **torn tail** (truncated or checksum-failing *last* line) is the
  expected residue of a crash mid-append — replay tolerates it, and
  :meth:`Journal.open` truncates it so the next append starts clean;
* corruption **anywhere else** means the file was damaged after it was
  written; replay refuses to guess and raises the typed
  :class:`~repro.errors.CorruptJournal` with the 1-based line number.

Durability: every append is flushed and ``fsync``'d before it returns.
Appends are serialized by an internal lock — HTTP handler threads and
the collector thread share one journal.

Fault injection: a :class:`~repro.vgpu.faults.FaultRules` given at
construction makes every append a deterministic disk-fault site (the
append-only analogue of the :mod:`repro.storage` write sites) —
``torn_write``/``enospc`` leave a genuinely torn tail and raise the
typed error; ``fsync_lost`` loses the unsynced record to the modeled
power cut; ``replace_crash`` dies before any byte lands.  A failed
append leaves the journal *repairable*: the next append (or re-open)
truncates back to the last good record, exactly as recovery would.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CorruptJournal, DiskFull, TornWrite
from ..vgpu.faults import DISK_KINDS, FaultInjected, FaultRules

__all__ = ["JOURNAL_SCHEMA", "Journal", "JournalReplay", "read_journal"]

JOURNAL_SCHEMA = "repro.journal/1"

#: the journal file inside a journal directory
JOURNAL_FILE = "gateway.wal"

#: record types replay accepts (anything else fails replay early).  The
#: gateway writes ``header``, ``admit``, ``done`` and ``session_close``;
#: ``dispatch`` and ``checkpoint`` carry nothing the fold reads and are
#: no longer written, but journals that hold them must still replay.
RECORD_TYPES = ("header", "admit", "dispatch", "checkpoint", "done",
                "session_close")


def _encode(rec: dict) -> bytes:
    """One canonical journal line (checksum-prefixed, newline-terminated)."""
    body = json.dumps(rec, sort_keys=True, separators=(",", ":"),
                      default=repr).encode()
    return b"%08x " % zlib.crc32(body) + body + b"\n"


def _decode(line: bytes):
    """The record in ``line``, or ``None`` when the line is torn/invalid."""
    if len(line) < 10 or line[8:9] != b" " or not line.endswith(b"\n"):
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body) != crc:
        return None
    try:
        rec = json.loads(body)
    except json.JSONDecodeError:
        return None
    return rec if isinstance(rec, dict) else None


@dataclass
class JournalReplay:
    """What one read pass over a journal file saw."""

    records: list = field(default_factory=list)
    #: byte offset just past the last valid record (truncation point)
    good_bytes: int = 0
    #: a torn/invalid tail line was tolerated (crash mid-append)
    torn_tail: bool = False


def read_journal(path: str | Path) -> JournalReplay:
    """Replay every valid record of the journal at ``path``.

    Tolerates exactly one torn tail line; anything invalid before the
    final line raises :class:`~repro.errors.CorruptJournal`.  A missing
    file replays as empty (a fresh gateway).
    """
    path = Path(path)
    replay = JournalReplay()
    if not path.exists():
        return replay
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    offset = 0
    for n, line in enumerate(lines, start=1):
        rec = _decode(line)
        if rec is None:
            if n == len(lines):
                replay.torn_tail = True
                return replay
            raise CorruptJournal(
                f"journal {path} line {n}: bad checksum or parse before "
                f"the final record — the file was damaged after it was "
                f"written", path=path, line=n)
        if n == 1:
            if rec.get("t") != "header" or \
                    rec.get("schema") != JOURNAL_SCHEMA:
                raise CorruptJournal(
                    f"journal {path} line 1: expected a "
                    f"{JOURNAL_SCHEMA!r} header, got {rec}", path=path,
                    line=1)
        elif rec.get("t") not in RECORD_TYPES:
            raise CorruptJournal(
                f"journal {path} line {n}: unknown record type "
                f"{rec.get('t')!r}", path=path, line=n)
        offset += len(line)
        replay.good_bytes = offset
        replay.records.append(rec)
    return replay


class Journal:
    """An append-only, fsync'd, checksummed record journal in one
    directory (``<journal_dir>/gateway.wal``)."""

    def __init__(self, directory: str | Path, *,
                 fault_plan: FaultRules | None = None) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILE
        for rule in fault_plan.rules if fault_plan is not None else ():
            if rule.kind not in DISK_KINDS:
                raise ValueError(
                    f"journal fault kind must be a disk kind "
                    f"({', '.join(DISK_KINDS)}), got {rule.kind!r}")
        # The journal's own injector: appends run on the gateway's
        # threads, outside any job attempt.
        self._injector = (fault_plan.injector()
                          if fault_plan is not None else None)
        self._lock = threading.Lock()
        self._fh = None
        self._good = 0          # file length after the last good append
        self.records_written = 0
        self.bytes_written = 0

    # ------------------------------------------------------------- #
    # Lifecycle                                                      #
    # ------------------------------------------------------------- #

    def open(self) -> JournalReplay:
        """Replay the existing file (if any), truncate a torn tail, and
        open for appending.  A fresh journal gets its header record."""
        self.directory.mkdir(parents=True, exist_ok=True)
        replay = read_journal(self.path)
        self._fh = open(self.path, "ab")
        if replay.torn_tail or \
                self._fh.tell() != replay.good_bytes:
            self._fh.truncate(replay.good_bytes)
            self._fh.seek(replay.good_bytes)
        self._good = replay.good_bytes
        if not replay.records:
            self.append({"t": "header", "schema": JOURNAL_SCHEMA})
        return replay

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # ------------------------------------------------------------- #
    # Appending                                                      #
    # ------------------------------------------------------------- #

    def append(self, rec: dict) -> int:
        """Durably append one record; returns its 0-based index.

        On an injected disk fault the typed error propagates and the
        journal repairs itself (truncates back to the last good record)
        before the *next* append — the torn bytes stay observable to
        the caller that wants to look, exactly as a real crash would
        leave them, but cannot corrupt later records.
        """
        if self._fh is None:
            raise ValueError(f"journal {self.path} is not open")
        line = _encode(rec)
        with self._lock:
            if self._fh.tell() != self._good:
                # A previous append failed mid-line: repair first.
                self._fh.truncate(self._good)
                self._fh.seek(self._good)
            kind = (self._injector.on_write(self.path)
                    if self._injector is not None else None)
            if kind == "replace_crash":
                raise FaultInjected(
                    f"injected crash before journal append "
                    f"(record {self.records_written})")
            if kind in ("enospc", "torn_write"):
                self._fh.write(line[: len(line) // 2])
                self._fh.flush()
                if kind == "enospc":
                    raise DiskFull(
                        f"injected ENOSPC appending to {self.path}",
                        path=self.path, operation="append")
                raise TornWrite(
                    f"injected torn append to {self.path}",
                    path=self.path, operation="append")
            self._fh.write(line)
            self._fh.flush()
            if kind == "fsync_lost":
                # Power loss before fsync: the page cache dies with the
                # machine, so the record is simply gone.
                self._fh.truncate(self._good)
                self._fh.seek(self._good)
                raise FaultInjected(
                    f"injected power loss; journal record not durable "
                    f"({self.path})")
            os.fsync(self._fh.fileno())
            self._good += len(line)
            index = self.records_written
            self.records_written += 1
            self.bytes_written += len(line)
            return index

    def stats(self) -> dict:
        return {"path": str(self.path),
                "records_written": self.records_written,
                "bytes_written": self.bytes_written}
