"""Push-based Andersen variant (the Section 6.4 comparison).

"In a push-based approach, multiple threads may simultaneously
propagate information to the same node and, in general, need to use
synchronization."

Same two-phase structure as the pull analysis, but propagation walks
*outgoing* edges: every node whose set changed ORs itself into each
successor — and because several sources can target one destination
concurrently, every destination word update is an atomic RMW.  The
fixed point is identical (asserted by tests); only the cost profile
differs, which is the point of the push-vs-pull ablation and the model
for the multicore (Galois) baseline in Fig. 10.
"""

from __future__ import annotations

import numpy as np

from ..core.counters import OpCounter
from ..resilience.addition import FallbackStorage
from ..resilience.policy import launch_ok
from ..vgpu.instrument import RESILIENCE
from .andersen import PTAResult, deref_pointers, induced_edges
from .bitset import BitMatrix
from .constraints import Constraints, Kind
from .graph import PushGraph

__all__ = ["andersen_push"]


def andersen_push(cons: Constraints, *, chunk_size: int = 1024,
                  counter: OpCounter | None = None,
                  max_rounds: int = 10_000) -> PTAResult:
    """Push-based inclusion analysis; same fixed point as the pull one.

    An installed :class:`repro.resilience.Resilience` acts as in
    :func:`~repro.pta.andersen.andersen_pull`: §7.1 fallback-chain edge
    storage plus round re-issue on transient injected kernel aborts.
    """
    return _push_impl(cons, chunk_size, counter, max_rounds)


def _push_impl(cons: Constraints, chunk_size: int,
               counter: OpCounter | None, max_rounds: int) -> PTAResult:
    n = cons.num_vars
    ctr = counter or OpCounter()
    pts = BitMatrix(n, n)
    W = pts.words
    storage = (FallbackStorage(n, chunk_size)
               if RESILIENCE.current is not None else None)
    graph = PushGraph(n, chunk_size, storage=storage)

    p_addr, q_addr = cons.of_kind(Kind.ADDRESS_OF)
    pts.add(p_addr, q_addr)
    ctr.launch("pta.init", items=int(p_addr.size),
               word_writes=int(p_addr.size), barriers=1)

    p_copy, q_copy = cons.of_kind(Kind.COPY)
    edges_added = graph.add_edges(q_copy, p_copy)
    ctr.launch("pta.addedge", items=int(p_copy.size),
               word_writes=2 * int(p_copy.size), barriers=1)

    loads = cons.of_kind(Kind.LOAD)
    stores = cons.of_kind(Kind.STORE)
    pointers = deref_pointers(loads, stores)

    changed = np.ones(n, dtype=bool)
    rounds = sweeps = 0
    while rounds < max_rounds:
        if not launch_ok("pta.round"):
            continue    # absorbed transient abort: re-issue the round
        rounds += 1
        # ---- Phase 1: edge addition (identical to the pull variant) -- #
        live = (np.ones(pointers.size, dtype=bool) if rounds == 1
                else changed[pointers])
        src, dst, sizes = induced_edges(pts, loads, stores, live)
        added = graph.add_edges(src, dst) if src.size else 0
        edges_added += added
        ctr.launch("pta.addedge", items=int(pointers.size),
                   word_reads=W * int(live.sum()) + int(sizes.sum()),
                   word_writes=2 * added, barriers=1)

        # ---- Phase 2: push sweep ------------------------------------ #
        # Sources: changed nodes (all nodes on the first sweep or after
        # edge additions, mirroring the pull variant's conservatism).
        if added > 0 or rounds == 1:
            srcs = np.flatnonzero(graph.degrees() > 0)
        else:
            srcs = np.flatnonzero(changed)
        new_changed = np.zeros(n, dtype=bool)
        reads = writes = atomics = 0
        work = []
        for s in srcs.tolist():
            out = graph.outgoing(s)
            work.append(1 + out.size)
            if out.size == 0:
                continue
            reads += W
            for d in out.tolist():
                # Destination update: atomicOr per word (contended).
                before = pts.bits[d].copy()
                pts.bits[d] |= pts.bits[s]
                atomics += W
                writes += W
                if np.any(pts.bits[d] != before):
                    new_changed[d] = True
        sweeps += 1
        ctr.launch("pta.propagate", items=int(srcs.size), word_reads=reads,
                   word_writes=writes, atomics=atomics, barriers=1,
                   work_per_thread=np.asarray(work, dtype=np.int64)
                   if work else np.zeros(1, dtype=np.int64))
        changed = new_changed
        if not changed.any() and added == 0:
            break
    return PTAResult(pts=pts, counter=ctr, rounds=rounds,
                     edges_added=edges_added, propagation_sweeps=sweeps)
