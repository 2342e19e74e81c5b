"""The §7.1 addition-strategy fallback chain.

The paper orders the addition strategies by how much device autonomy
they assume: Kernel-Only (in-kernel chunked malloc) > Kernel-Host
(kernel computes the requirement, host allocates) > Host-Only (host
pre-calculates and reallocates) > Pre-allocation (fixed worst case).
When the more autonomous strategy's allocation fails, the correct
degradation is to step *down* the chain — the data is the same, only
where fresh storage comes from changes.  Because every fallback
preserves stored content exactly (chunk inserts are atomic w.r.t.
allocation failure and flat stores are order-insensitive sets), a run
that degrades mid-flight still produces byte-identical result arrays.

Three tools:

* :class:`FallbackStorage` — per-node growable ID sets (the PTA
  constraint-graph storage) that start Kernel-Only and downgrade
  Kernel-Only → Kernel-Host → Host-Only on
  :class:`~repro.errors.OutOfDeviceMemory`.
* :class:`GrowthAndRetry` — wraps a :class:`~repro.core.addition.\
PreAllocation` (or any growth strategy): on exhaustion it grows to the
  exact requirement through the host heap and retries, instead of dying.
* :func:`grow_array` — the driver-side guard for amortized
  (over-allocating) array growth: offers the preferred growth to the
  fault layer and falls back to exact-fit growth when refused.
"""

from __future__ import annotations

import numpy as np

from ..core.addition import GrowthStrategy, PreAllocation
from ..errors import OutOfDeviceMemory
from ..vgpu.instrument import fault_malloc, trace_gauge
from ..vgpu.memory import ChunkAllocator, ChunkList, DeviceAllocator

__all__ = ["FallbackStorage", "HostChunkAllocator", "GrowthAndRetry",
           "grow_array"]

#: §7.1 chain order, most to least device-autonomous
ADDITION_CHAIN = ("kernel_only", "kernel_host", "host_only")


class HostChunkAllocator(ChunkAllocator):
    """Kernel-Host chunk source: the chunk grant goes through the host
    heap (a :class:`DeviceAllocator` malloc plus one host round trip)
    instead of in-kernel malloc — the middle rung of the §7.1 chain."""

    def __init__(self, chunk_size: int, alloc: DeviceAllocator) -> None:
        super().__init__(chunk_size)
        self.host_alloc = alloc
        self.host_round_trips = 0

    def _new_chunk(self) -> np.ndarray:
        self.host_round_trips += 1
        return self.host_alloc.malloc(self.chunk_size)  # host-heap fault site


class FallbackStorage:
    """Per-node growable sorted ID sets behind the §7.1 fallback chain.

    Storage model for :class:`repro.pta.graph._EdgeLists`, which hands
    it every node's new IDs in ascending node order: starts in
    ``kernel_only`` mode (a plain :class:`ChunkAllocator`); a
    :class:`~repro.errors.OutOfDeviceMemory` (e.g. an injected
    :class:`~repro.errors.ChunkPoolExhausted`) downgrades to
    ``kernel_host`` (host-granted chunks), and a failure there to
    ``host_only`` (flat per-node arrays on the host heap).  Inserts are
    retried transparently after each downgrade — content is preserved
    because the failed insert never mutated anything.

    Node sets migrate to flat storage lazily (only nodes that *grow*
    after the ``host_only`` downgrade pay the copy), so the fallback
    cost is proportional to post-fault activity, not graph size.
    """

    def __init__(self, num_nodes: int, chunk_size: int = 1024, *,
                 resilience=None) -> None:
        self.num_nodes = num_nodes
        self.chunk_size = chunk_size
        self.resilience = resilience
        self.mode = "kernel_only"
        self.alloc = ChunkAllocator(chunk_size)
        self.host_alloc = DeviceAllocator()
        self._kh_alloc: HostChunkAllocator | None = None
        self.lists: list[ChunkList] = [self.alloc.new_list()
                                       for _ in range(num_nodes)]
        self._flat: dict[int, np.ndarray] = {}

    # -- chain management ------------------------------------------- #

    def _downgrade(self, exc: OutOfDeviceMemory) -> None:
        pos = ADDITION_CHAIN.index(self.mode)
        if pos + 1 >= len(ADDITION_CHAIN):
            raise exc
        prev, self.mode = self.mode, ADDITION_CHAIN[pos + 1]
        if self.mode == "kernel_host" and self._kh_alloc is None:
            self._kh_alloc = HostChunkAllocator(self.chunk_size,
                                                self.host_alloc)
            # Continue the chunk accounting where the in-kernel
            # allocator stopped, so fragmentation stats stay global.
            self._kh_alloc.chunks_allocated = self.alloc.chunks_allocated
            self._kh_alloc.slots_used = self.alloc.slots_used
        # note() mirrors the event as a gauge itself; emit directly only
        # for un-managed (resilience-less) use so traces still see it.
        if self.resilience is None:
            trace_gauge("resilience.addition_downgrade",
                        ADDITION_CHAIN.index(self.mode))
        else:
            self.resilience.note("addition_downgrade", from_=prev,
                                 to=self.mode, reason=str(exc))
            self.resilience.note_effective("addition", self.mode)

    def _active_chunks(self) -> ChunkAllocator:
        return self._kh_alloc if self.mode == "kernel_host" else self.alloc

    # -- storage surface (what _EdgeLists feeds) --------------------- #

    def insert(self, node: int, values: np.ndarray) -> int:
        while True:
            try:
                if self.mode == "host_only" or node in self._flat:
                    return self._flat_insert(node, values)
                return self._active_chunks().insert_many(self.lists[node],
                                                         values)
            except OutOfDeviceMemory as exc:
                if self.resilience is None:
                    raise
                self._downgrade(exc)

    def _flat_insert(self, node: int, values: np.ndarray) -> int:
        values = np.unique(np.asarray(values, dtype=np.int64))
        current = self._flat.get(node)
        if current is None:
            current = np.sort(self.lists[node].to_array())
        merged = np.union1d(current, values)
        added = int(merged.size - current.size)
        if added:
            fault_malloc(merged.nbytes)    # host-heap growth fault site
            self.host_alloc.bytes_copied += current.nbytes
        self._flat[node] = merged
        return added

    def of(self, node: int) -> np.ndarray:
        flat = self._flat.get(node)
        return flat if flat is not None else self.lists[node].to_array()

    @property
    def chunks_allocated(self) -> int:
        return self._active_chunks().chunks_allocated


class GrowthAndRetry(GrowthStrategy):
    """Growth-and-retry wrapper for :class:`PreAllocation` (§7.1).

    ``ensure`` delegates to the wrapped strategy; when the fixed
    reservation is exhausted it grows the array to the exact
    requirement through the host heap (one realloc, no over-allocation
    — the conservative emergency path) and records the degradation.
    """

    def __init__(self, inner: GrowthStrategy, *, resilience=None) -> None:
        super().__init__(inner.alloc)
        self.inner = inner
        self.resilience = resilience
        self.retries = 0

    def ensure(self, arr: np.ndarray, needed: int, fill=None) -> np.ndarray:
        try:
            return self.inner.ensure(arr, needed, fill=fill)
        except OutOfDeviceMemory as exc:
            self.retries += 1
            if self.resilience is None:
                trace_gauge("resilience.growth_retry", self.retries)
            else:
                self.resilience.note(
                    "growth_retry", requested=exc.requested,
                    available=exc.available, strategy="preallocation")
                self.resilience.note_effective("addition", "host_grown")
            out = self.alloc.realloc(arr, int(needed), fill=fill)
            if isinstance(self.inner, PreAllocation):
                self.inner.capacity = max(self.inner.capacity, int(needed))
            self.stats.reallocs += 1
            return out


def grow_array(resilience, grow, preferred: int, exact: int,
               row_bytes: int = 72) -> None:
    """Amortized-growth guard for driver-owned element arrays.

    Offers the *preferred* (over-allocated) growth to the fault layer
    first; if the device refuses it with
    :class:`~repro.errors.OutOfDeviceMemory` and ``resilience`` is
    given, falls back to the *exact* requirement (offered again — a
    refusal there propagates: the device genuinely cannot hold the
    data).  ``grow`` is the caller's growth callable (e.g.
    ``mesh.ensure_tri_capacity``); ``row_bytes`` sizes the offer.

    Content-identical by construction: preferred and exact growth
    differ only in spare capacity, which never enters a result digest.
    """
    try:
        fault_malloc(preferred * row_bytes)
    except OutOfDeviceMemory as exc:
        if resilience is None:
            raise
        resilience.note("growth_exact_fit", preferred=preferred,
                        exact=exact, reason=str(exc))
        fault_malloc(exact * row_bytes)
        grow(exact)
        return
    grow(preferred)
