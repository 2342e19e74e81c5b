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

Two tools, both logging into the :class:`~repro.resilience.policy.\
Resilience` in the :data:`~repro.vgpu.instrument.RESILIENCE` slot when
a fault reaches them (with the slot empty the fault propagates typed):

* :class:`FallbackStorage` — per-node growable ID sets (the PTA
  constraint-graph storage) that start Kernel-Only and downgrade
  Kernel-Only → Kernel-Host → Host-Only on
  :class:`~repro.errors.OutOfDeviceMemory`.
* :func:`grow_array` — the driver-side guard for amortized
  (over-allocating) array growth: offers the preferred growth to the
  fault layer and falls back to exact-fit growth when refused.
"""

from __future__ import annotations

import numpy as np

from ..errors import OutOfDeviceMemory
from ..vgpu.instrument import RESILIENCE, fault_malloc
from ..vgpu.memory import ChunkAllocator, ChunkList, DeviceAllocator

__all__ = ["FallbackStorage", "HostChunkAllocator", "grow_array"]

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

    The storage holds no :class:`~repro.resilience.policy.Resilience`:
    a session checkpoint pickles it, and a downgrade must land in the
    attempt that absorbed the fault, which is the one in the slot.
    """

    def __init__(self, num_nodes: int, chunk_size: int = 1024) -> None:
        self.num_nodes = num_nodes
        self.chunk_size = chunk_size
        self.mode = "kernel_only"
        self.alloc = ChunkAllocator(chunk_size)
        self.host_alloc = DeviceAllocator()
        self._kh_alloc: HostChunkAllocator | None = None
        self.lists: list[ChunkList] = [self.alloc.new_list()
                                       for _ in range(num_nodes)]
        self._flat: dict[int, np.ndarray] = {}

    def __setstate__(self, state: dict) -> None:
        # Checkpoints written while the storage held the Resilience it
        # was built with carry a stale copy; the slot replaces it.
        state.pop("resilience", None)
        self.__dict__.update(state)

    # -- chain management ------------------------------------------- #

    def _downgrade(self, exc: OutOfDeviceMemory) -> None:
        resil = RESILIENCE.current
        pos = ADDITION_CHAIN.index(self.mode)
        if resil is None or pos + 1 >= len(ADDITION_CHAIN):
            raise exc
        prev, self.mode = self.mode, ADDITION_CHAIN[pos + 1]
        if self.mode == "kernel_host" and self._kh_alloc is None:
            self._kh_alloc = HostChunkAllocator(self.chunk_size,
                                                self.host_alloc)
            # Continue the chunk accounting where the in-kernel
            # allocator stopped, so fragmentation stats stay global.
            self._kh_alloc.chunks_allocated = self.alloc.chunks_allocated
            self._kh_alloc.slots_used = self.alloc.slots_used
        resil.note("addition_downgrade", from_=prev, to=self.mode,
                   reason=str(exc))

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


def grow_array(grow, preferred: int, exact: int,
               row_bytes: int = 72) -> None:
    """Amortized-growth guard for driver-owned element arrays.

    Offers the *preferred* (over-allocated) growth to the fault layer
    first; if the device refuses it with
    :class:`~repro.errors.OutOfDeviceMemory` and a
    :class:`~repro.resilience.policy.Resilience` is installed, falls
    back to the *exact* requirement (offered again — a refusal there
    propagates: the device genuinely cannot hold the data).  ``grow``
    is the caller's growth callable (e.g. ``mesh.ensure_tri_capacity``);
    ``row_bytes`` sizes the offer.

    Content-identical by construction: preferred and exact growth
    differ only in spare capacity, which never enters a result digest.
    """
    try:
        fault_malloc(preferred * row_bytes)
    except OutOfDeviceMemory as exc:
        resil = RESILIENCE.current
        if resil is None:
            raise
        resil.note("growth_exact_fit", preferred=preferred, exact=exact,
                   reason=str(exc))
        fault_malloc(exact * row_bytes)
        grow(exact)
        return
    grow(preferred)
