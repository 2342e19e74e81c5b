"""The dynamically growing constraint graph (paper Sections 4 and 6.4).

Nodes are program variables (fixed count); directed edges carry
points-to flow and are added *monotonically and unpredictably* as load
and store constraints fire — the PTA morph behavior.

The GPU representation is pull-based: "each node keeps a list of its
incoming neighbors ... we cannot rely on a single static list ... but
need to maintain a separate list for each node to allow for dynamic
growth" (Section 6.4), allocated in-kernel as sorted chunks
(Section 7.1, Kernel-Only).

The host keeps those per-node lists in one flat index: a sorted unique
int64 array of ``owner * num_nodes + other`` keys plus per-node
degrees.  One batch of edges is deduplicated with one sort and one
``searchsorted``; a node's list is a slice of the :meth:`csr` view,
which phase 2 reads directly.  The Kernel-Only chunks are modeled from
degree growth alone (:meth:`~repro.vgpu.memory.ChunkAllocator.\
account_growth`): a list of ``d`` IDs fills ``ceil(d / chunk_size)``
chunks, and every fresh chunk is one in-kernel malloc and one fault
site, in ascending node order.  So no chunk slack is held or
checkpointed.  When resilience routes storage through
:class:`~repro.resilience.addition.FallbackStorage`, that storage
receives every node's new IDs and keeps modeling the §7.1 fallback
chain, while the same flat index still backs phase 2.

:class:`PullGraph` files an edge under its destination (incoming
lists); :class:`PushGraph` is the push-based alternative (per-node
*outgoing* lists) used by the push-vs-pull ablation.
"""

from __future__ import annotations

import numpy as np

from ..vgpu.memory import ChunkAllocator

__all__ = ["PullGraph", "PushGraph"]


class _EdgeLists:
    def __init__(self, num_nodes: int, chunk_size: int,
                 storage=None) -> None:
        self.num_nodes = num_nodes
        # ``storage`` (e.g. repro.resilience.FallbackStorage) replaces
        # the degree-driven Kernel-Only accounting with the §7.1
        # fallback chain; it must offer insert(node, ids) and
        # chunks_allocated, so ``self.alloc`` stays valid for
        # fragmentation accounting.
        self.storage = storage
        self.alloc = storage if storage is not None \
            else ChunkAllocator(chunk_size)
        self.keys = np.empty(0, dtype=np.int64)
        self.deg = np.zeros(num_nodes, dtype=np.int64)
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_csr"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        if "keys" not in state:
            # Written before the flat index: per-node ChunkLists (or a
            # FallbackStorage) hold the IDs, plus an edge tally.
            state = dict(state)
            n = state["num_nodes"]
            lists = state.pop("lists", None)
            state.pop("num_edges", None)
            rows = ([lst.to_array() for lst in lists] if lists is not None
                    else [state["storage"].of(v) for v in range(n)])
            deg = np.asarray([r.size for r in rows], dtype=np.int64)
            owner = np.repeat(np.arange(n, dtype=np.int64), deg)
            other = (np.concatenate(rows).astype(np.int64) if rows
                     else np.empty(0, dtype=np.int64))
            state.update(keys=np.sort(owner * n + other), deg=deg,
                         _csr=None)
        self.__dict__.update(state)

    @property
    def num_edges(self) -> int:
        return int(self.keys.size)

    def _add(self, owner, other) -> int:
        """File each ``other[i]`` under ``owner[i]``; returns how many
        were new."""
        n = self.num_nodes
        keys = np.sort(np.asarray(owner, dtype=np.int64) * n
                       + np.asarray(other, dtype=np.int64))
        if keys.size == 0:
            return 0
        # Adjacent-difference dedup of the sorted keys: np.unique's
        # result, without its hash-based int64 path (~15x slower here).
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        pos = np.searchsorted(self.keys, keys)
        if self.keys.size:
            fresh = self.keys[np.minimum(pos, self.keys.size - 1)] != keys
            keys, pos = keys[fresh], pos[fresh]
            if keys.size == 0:
                return 0
        grown = np.bincount(keys // n, minlength=n)
        if self.storage is None:
            self.alloc.account_growth(self.deg, grown)
        else:
            for group in np.split(keys, np.cumsum(grown[grown > 0])[:-1]):
                node = int(group[0] // n)
                self.storage.insert(node, group - node * n)
        self.keys = np.insert(self.keys, pos, keys)
        self.deg += grown
        self._csr = None
        return int(keys.size)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, ids)``: node ``v``'s sorted IDs are
        ``ids[indptr[v]:indptr[v + 1]]``."""
        if self._csr is None:
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(self.deg, out=indptr[1:])
            n = self.num_nodes
            ids = self.keys - np.repeat(np.arange(n, dtype=np.int64) * n,
                                        self.deg)
            # of() hands out slices (views) of this cache
            indptr.setflags(write=False)
            ids.setflags(write=False)
            self._csr = (indptr, ids)
        return self._csr

    def of(self, node: int) -> np.ndarray:
        indptr, ids = self.csr()
        return ids[indptr[node]: indptr[node + 1]]

    def degree(self, node: int) -> int:
        return int(self.deg[node])

    def degrees(self) -> np.ndarray:
        return self.deg.copy()


class PullGraph(_EdgeLists):
    """Incoming-edge lists: ``add_edges(src, dst)`` files src under dst.

    Pull-based propagation then needs *no synchronization*: each node is
    updated by exactly one thread, which reads (possibly stale)
    neighbor sets — safe by monotonicity (Section 6.4).
    """

    def __init__(self, num_nodes: int, chunk_size: int = 1024,
                 storage=None) -> None:
        super().__init__(num_nodes, chunk_size, storage=storage)

    def add_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        return self._add(dst, src)

    def incoming(self, node: int) -> np.ndarray:
        return self.of(node)


class PushGraph(_EdgeLists):
    """Outgoing-edge lists for the push-based variant."""

    def __init__(self, num_nodes: int, chunk_size: int = 1024,
                 storage=None) -> None:
        super().__init__(num_nodes, chunk_size, storage=storage)

    def add_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        return self._add(src, dst)

    def outgoing(self, node: int) -> np.ndarray:
        return self.of(node)
