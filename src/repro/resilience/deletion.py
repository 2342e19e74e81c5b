"""The §7.2 deletion fallback: Recycling → Marking.

Recycling keeps deleted element slots on a device free-list and feeds
them to subsequent additions; the free-list is a fixed-size buffer, so
it can fill (or an injected
:class:`~repro.errors.RecyclePoolExhausted` can declare it full).  The
correct degradation is the paper's simplest strategy — Marking: stop
tracking free slots, leave deleted elements flagged, and serve every
subsequent allocation from fresh tail storage.  That is always correct
(Marking is how SP deletes), merely less space-efficient.

Note the determinism grain: a run that degrades to Marking places new
elements in *different slots* than the fault-free run (it no longer
reuses holes), so its digest matches other runs of the same seed + same
fault plan — not the fault-free digest.  This is inherent to the
strategy (storage layout is the thing being degraded), and is why the
chaos suite asserts plan-determinism plus validity for deletion faults,
and byte-identity for the layout-neutral OOM/abort fallbacks.
"""

from __future__ import annotations

import numpy as np

from ..errors import RecyclePoolExhausted
from ..vgpu.instrument import RESILIENCE
from ..vgpu.memory import RecyclePool

__all__ = ["ResilientRecyclePool"]


class ResilientRecyclePool:
    """A :class:`RecyclePool` drop-in implementing Recycling → Marking.

    Starts in recycling mode, delegating to the wrapped pool.  The
    first :class:`~repro.errors.RecyclePoolExhausted` (organic capacity
    overflow or injected) flips it to marking mode: ``release`` becomes
    a no-op (slots stay flagged deleted, exactly Marking semantics) and
    ``acquire`` hands out nothing, so ``allocate`` serves fresh tail
    slots only.  The fallback is logged into the
    :class:`~repro.resilience.policy.Resilience` in the
    :data:`~repro.vgpu.instrument.RESILIENCE` slot; with the slot empty
    the exhaustion propagates typed instead.
    """

    def __init__(self, pool: RecyclePool | None = None) -> None:
        self.pool = pool or RecyclePool()
        self.marking = False
        self.dropped_slots = 0

    def _fall_back(self, exc: RecyclePoolExhausted) -> None:
        resil = RESILIENCE.current
        if resil is None:
            raise exc
        self.marking = True
        resil.note("deletion_fallback", from_="recycle", to="marking",
                   reason=str(exc))

    def release(self, slots) -> None:
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        if self.marking:
            self.dropped_slots += int(slots.size)
            return
        try:
            self.pool.release(slots)
        except RecyclePoolExhausted as exc:
            self._fall_back(exc)
            self.dropped_slots += int(slots.size)

    def acquire(self, n: int) -> np.ndarray:
        if self.marking:
            return np.empty(0, dtype=np.int64)
        return self.pool.acquire(n)

    def allocate(self, n: int, tail_start: int) -> tuple[np.ndarray, int]:
        recycled = self.acquire(n)
        fresh_needed = n - recycled.size
        fresh = np.arange(tail_start, tail_start + fresh_needed,
                          dtype=np.int64)
        return (np.concatenate([recycled, fresh]),
                tail_start + fresh_needed)

    def __len__(self) -> int:
        return 0 if self.marking else len(self.pool)

    @property
    def recycled(self) -> int:
        return self.pool.recycled

    @property
    def reused(self) -> int:
        return self.pool.reused
