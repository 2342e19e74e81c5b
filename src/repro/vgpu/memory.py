"""Device memory management (paper Sections 7.1 and 7.2).

Three allocators model the strategies the paper distinguishes:

* :class:`DeviceAllocator` — the host-side heap (``cudaMalloc`` /
  ``cudaFree`` / ``cudaRealloc`` via copy).  Used by the Pre-allocation,
  Host-Only and Kernel-Host addition strategies; tracks bytes in use,
  high-water mark, allocation/copy counts so the addition-strategy
  ablation can compare overheads.

* :class:`ChunkAllocator` — the paper's Kernel-Only strategy: in-kernel
  ``malloc`` of fixed-size *chunks* that are linked into per-node lists.
  PTA uses it for dynamically growing incoming-edge lists ("Each node
  maintains a linked list of chunks of incoming neighbors", Section 7.1);
  chunk sizes of 512–4096 worked best in the paper.

* :class:`RecyclePool` — the Recycle deletion strategy (Section 7.2):
  deleted element slots are kept on a free list and handed back to
  subsequent additions, trading compaction cost against reuse.  DMR uses
  it for triangle slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import RecyclePoolExhausted
from .instrument import SANITIZER, fault_chunk, fault_malloc, fault_pool

__all__ = ["DeviceAllocator", "ChunkList", "ChunkAllocator", "RecyclePool"]


class DeviceAllocator:
    """Host-driven device heap with realloc-by-copy accounting.

    Allocations and frees are reported to the active sanitizer (if any),
    which uses the extents for out-of-bounds checking and the free events
    for use-after-free / double-free detection.
    """

    def __init__(self) -> None:
        self.bytes_in_use = 0
        self.high_water = 0
        self.mallocs = 0
        self.frees = 0
        self.bytes_copied = 0

    def malloc(self, shape, dtype=np.int64, fill=None) -> np.ndarray:
        """Allocate a device array (``cudaMalloc``).

        An active fault injector may refuse the request by raising
        :class:`repro.errors.OutOfDeviceMemory` — before any accounting
        mutates, so an absorbed fault leaves the allocator consistent.
        """
        arr = np.empty(shape, dtype=dtype)
        fault_malloc(arr.nbytes)
        if fill is not None:
            arr.fill(fill)
        self.mallocs += 1
        self.bytes_in_use += arr.nbytes
        self.high_water = max(self.high_water, self.bytes_in_use)
        san = SANITIZER.current
        if san is not None:
            san.on_alloc(arr)
        return arr

    def free(self, arr: np.ndarray) -> None:
        """Release a device array (``cudaFree``)."""
        self.frees += 1
        self.bytes_in_use -= arr.nbytes
        san = SANITIZER.current
        if san is not None:
            san.on_free(arr)

    def realloc(self, arr: np.ndarray, new_len: int, fill=None) -> np.ndarray:
        """Grow ``arr`` (axis 0) to ``new_len`` rows: malloc + copy + free.

        This is the Host-Only / Kernel-Host growth path; the copy traffic
        is what the over-allocation factor amortizes.
        """
        if new_len <= arr.shape[0]:
            return arr
        shape = (new_len,) + arr.shape[1:]
        out = self.malloc(shape, dtype=arr.dtype, fill=fill)
        out[: arr.shape[0]] = arr
        self.bytes_copied += arr.nbytes
        self.free(arr)
        return out


@dataclass
class ChunkList:
    """A per-node linked list of sorted index chunks (Kernel-Only storage).

    Semantically a growable sorted set of node IDs.  ``chunks`` holds
    references into the allocator's chunk pool; ``counts`` how many slots
    of each chunk are used.  Lookups exploit per-chunk sorting, as the
    paper sorts chunk contents by ID "to enable efficient lookups".
    """

    chunks: list = field(default_factory=list)
    counts: list = field(default_factory=list)

    def __len__(self) -> int:
        return sum(self.counts)

    def to_array(self) -> np.ndarray:
        """All stored IDs (concatenation of used chunk prefixes)."""
        if not self.chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([c[:n] for c, n in zip(self.chunks, self.counts)])

    def contains(self, value: int) -> bool:
        for c, n in zip(self.chunks, self.counts):
            pos = int(np.searchsorted(c[:n], value))
            if pos < n and c[pos] == value:
                return True
        return False


class ChunkAllocator:
    """In-kernel chunked allocator for dynamically growing neighbor lists.

    ``chunk_size`` is the paper's tunable (512–4096 best in their runs;
    default 1024).  Chunking "reduces the frequency of memory allocation
    at the cost of some internal fragmentation".
    """

    def __init__(self, chunk_size: int = 1024) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self.chunks_allocated = 0
        self.slots_used = 0

    def new_list(self) -> ChunkList:
        return ChunkList()

    def _new_chunk(self) -> np.ndarray:
        """One in-kernel chunk malloc; the fault site for §7.1
        chunk-pool exhaustion (:class:`repro.errors.ChunkPoolExhausted`).
        The caller counts the chunk once its whole request is granted."""
        fault_chunk()
        return np.empty(self.chunk_size, dtype=np.int64)

    def insert_many(self, lst: ChunkList, values: np.ndarray) -> int:
        """Insert ``values`` (deduplicating against existing content).

        Returns the number of genuinely new IDs stored.  Insertion keeps
        each chunk individually sorted by merging new IDs into the tail
        chunk and spilling into fresh chunks as needed.

        The operation is *atomic with respect to allocation failure*:
        every fresh chunk the insert needs is acquired before the list
        is touched, so a :class:`~repro.errors.ChunkPoolExhausted`
        raised mid-request leaves ``lst`` (and the use counters) exactly
        as they were — the caller can fall back to another storage
        strategy and retry the same values.
        """
        values = np.unique(np.asarray(values, dtype=np.int64))
        if values.size == 0:
            return 0
        existing = lst.to_array()
        if existing.size:
            values = values[~np.isin(values, existing)]
        if values.size == 0:
            return 0
        added = int(values.size)
        room = (self.chunk_size - lst.counts[-1]
                if lst.chunks and lst.counts[-1] < self.chunk_size else 0)
        spill = max(0, added - room)
        fresh = [self._new_chunk()
                 for _ in range((spill + self.chunk_size - 1)
                                // self.chunk_size)]
        self.chunks_allocated += len(fresh)
        self.slots_used += added
        # Fill the tail chunk first, keeping it sorted.
        if room:
            tail, n = lst.chunks[-1], lst.counts[-1]
            take = values[:room]
            merged = np.sort(np.concatenate([tail[:n], take]))
            tail[: merged.size] = merged
            lst.counts[-1] = merged.size
            values = values[room:]
        # Spill remaining values into the pre-acquired fresh chunks.
        for chunk in fresh:
            take = values[: self.chunk_size]
            chunk[: take.size] = take  # already sorted
            lst.chunks.append(chunk)
            lst.counts.append(int(take.size))
            values = values[self.chunk_size :]
        return added

    def account_growth(self, degrees: np.ndarray, grown: np.ndarray) -> int:
        """Chunk accounting for lists growing from ``degrees`` by ``grown``.

        The list-free form of :meth:`insert_many`, for callers that keep
        the IDs themselves (:class:`repro.pta.graph.PullGraph`).  A list
        of ``d`` IDs fills ``ceil(d / chunk_size)`` chunks, since inserts
        fill the tail chunk before spilling.  Every fresh chunk is
        offered to the fault layer first, in ascending list order, and
        only then counted: a :class:`~repro.errors.ChunkPoolExhausted`
        leaves the use counters exactly as they were.  Returns the
        number of fresh chunks.
        """
        cs = self.chunk_size
        degrees = np.asarray(degrees, dtype=np.int64)
        fresh = int(((degrees + grown + cs - 1) // cs
                     - (degrees + cs - 1) // cs).sum())
        for _ in range(fresh):
            fault_chunk()
        self.chunks_allocated += fresh
        self.slots_used += int(np.sum(grown))
        return fresh

    @property
    def internal_fragmentation(self) -> float:
        """Unused fraction of allocated chunk slots."""
        total = self.chunks_allocated * self.chunk_size
        return 1.0 - self.slots_used / total if total else 0.0


class RecyclePool:
    """Free-list of recycled element slots (Recycle deletion strategy).

    ``capacity`` optionally bounds the free list (a device free-list is
    a fixed-size buffer); a :meth:`release` that would overflow it
    raises :class:`repro.errors.RecyclePoolExhausted` *before* mutating
    anything, which is the organic trigger for the §7.2
    Recycling -> Marking fallback in :mod:`repro.resilience`.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._free: list[int] = []
        self.recycled = 0
        self.reused = 0

    def release(self, slots) -> None:
        """Mark element slots as deleted and reusable."""
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        fault_pool(int(slots.size))
        if (self.capacity is not None
                and len(self._free) + slots.size > self.capacity):
            raise RecyclePoolExhausted(
                requested=int(slots.size),
                available=self.capacity - len(self._free), unit="slots")
        self._free.extend(int(s) for s in slots)
        self.recycled += slots.size

    def acquire(self, n: int) -> np.ndarray:
        """Take up to ``n`` recycled slots (may return fewer)."""
        take = min(n, len(self._free))
        out = np.array([self._free.pop() for _ in range(take)], dtype=np.int64)
        self.reused += take
        return out

    def allocate(self, n: int, tail_start: int) -> tuple[np.ndarray, int]:
        """Exactly ``n`` slots: recycled first, then fresh tail slots.

        Returns ``(slots, new_tail)``; the caller grows its element
        arrays when ``new_tail`` exceeds their capacity.
        """
        recycled = self.acquire(n)
        fresh_needed = n - recycled.size
        fresh = np.arange(tail_start, tail_start + fresh_needed, dtype=np.int64)
        return np.concatenate([recycled, fresh]), tail_start + fresh_needed

    def __len__(self) -> int:
        return len(self._free)
