"""The session mutation log: an append-only audit trail with compaction.

Every applied batch is logged — which ops, how many elements they
touched, which recompute mode served them — so a session can always
answer "how did this state come to be".  The log is *not* needed for
correctness (planner state already incorporates every applied op); it
exists for audit and replay tooling, which is why compaction may fold
away op detail: once the retained op count passes ``compact_after``,
the oldest entries collapse into a single summary marker holding only
their batch/op counts.  The fold keeps the log O(compact_after) no
matter how long the session lives, the same bounded-spool discipline
as :meth:`repro.serve.checkpoint.CheckpointStore.prune`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["MutationLog"]


@dataclass
class MutationLog:
    """Bounded per-session record of applied mutation batches."""

    #: retained entries, oldest first: ``{"batch", "ops", "mode"}``
    entries: list = field(default_factory=list)
    #: retained-op ceiling that triggers compaction
    compact_after: int = 256
    #: batches folded away by compaction
    compacted_batches: int = 0
    #: ops folded away by compaction
    compacted_ops: int = 0

    def append(self, batch: int, ops, mode: str) -> None:
        """Record one applied batch, compacting if the log outgrew its
        ceiling."""
        self.entries.append({"batch": int(batch),
                             "ops": [dict(op) for op in ops],
                             "mode": str(mode)})
        self.compact()

    def retained_ops(self) -> int:
        return sum(len(e["ops"]) for e in self.entries)

    def compact(self) -> None:
        """Fold oldest entries until retained ops fit ``compact_after``.

        The newest entry always survives, even when it alone exceeds
        the ceiling.
        """
        while len(self.entries) > 1 and \
                self.retained_ops() > max(0, self.compact_after):
            e = self.entries.pop(0)
            self.compacted_batches += 1
            self.compacted_ops += len(e["ops"])

    def to_dict(self) -> dict:
        return {"entries": [dict(e) for e in self.entries],
                "compact_after": self.compact_after,
                "compacted_batches": self.compacted_batches,
                "compacted_ops": self.compacted_ops}

    @classmethod
    def from_dict(cls, d: Mapping) -> "MutationLog":
        return cls(entries=[dict(e) for e in d.get("entries", [])],
                   compact_after=int(d.get("compact_after", 256)),
                   compacted_batches=int(d.get("compacted_batches", 0)),
                   compacted_ops=int(d.get("compacted_ops", 0)))
