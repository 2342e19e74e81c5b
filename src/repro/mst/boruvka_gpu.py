"""GPU-style Boruvka MST via component-based pseudo edge contraction
(paper Sections 5, 6.5, 8.4).

"Our implementation of edge contraction does not literally merge the
incident edges ... instead, we maintain groups of endpoints that form a
partition over nodes."  Each round runs the paper's four kernels:

1. per *node*: the minimum-weight edge whose other endpoint lies in a
   different component;
2. per *component*: the minimum such edge over its member nodes;
3. cycle breaking: chosen edges pair components up; mutual pairs form
   2-cycles (with globally unique edge keys no longer cycles exist) and
   the smaller-id component becomes the representative;
4. merging: every component re-points to its partner, then pointer
   jumping flattens the forest, and the node->component mapping is
   re-gathered (the dynamic two-mapping maintenance of Section 6.5 —
   one atomic append per node rebuilds the component-to-nodes lists).

Edge keys are ``(weight << 31) | undirected_edge_id``: unique per
undirected edge and identical from both endpoints, which guarantees
mutual minimum pairs select the *same* edge and the partner graph has
only 2-cycles.

The chosen edges across all rounds are exactly an MST/forest (verified
against Kruskal in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import OpCounter
from ..resilience.policy import launch_ok
from ..vgpu.atomics import atomic_min
from ..vgpu.instrument import TRACER, trace_span

__all__ = ["MSTResult", "boruvka_gpu", "mst_barrier", "mst_input",
           "mst_output", "mst_sizes", "mst_solve", "serve_job"]

_INF = np.int64(2**62)


@dataclass
class MSTResult:
    mst_edges: np.ndarray     # undirected edge ids chosen
    total_weight: int
    counter: OpCounter
    rounds: int
    num_components: int       # 1 for connected inputs (forest otherwise)


def boruvka_gpu(num_nodes: int, src: np.ndarray, dst: np.ndarray,
                weight: np.ndarray, *, counter: OpCounter | None = None,
                max_rounds: int = 128, barrier=None) -> MSTResult:
    """Component-based Boruvka over a once-per-edge undirected list.

    ``barrier`` (an optional :class:`repro.vgpu.sync.BarrierModel`)
    selects the §7.3 global-barrier scheme the per-kernel round
    barriers are priced under; ``None`` keeps the cost model's default.
    The chosen edges are identical either way — only the modeled time
    moves, which is what makes the barrier a tunable axis for
    :mod:`repro.tune`.

    The per-round atomic-min reductions report to an active sanitizer,
    and an active tracer records the rounds and four kernels as a
    :mod:`repro.obs` span hierarchy.  A
    :class:`repro.resilience.Resilience` in the
    :data:`~repro.vgpu.instrument.RESILIENCE` slot re-issues rounds
    refused by transient injected kernel aborts; with the slot empty,
    the fault propagates typed.
    """
    with trace_span("mst.boruvka_gpu", cat="driver"):
        return _boruvka_impl(num_nodes, src, dst, weight, counter=counter,
                             max_rounds=max_rounds, barrier=barrier)


def _boruvka_impl(num_nodes: int, src: np.ndarray, dst: np.ndarray,
                  weight: np.ndarray, *, counter: OpCounter | None,
                  max_rounds: int, barrier=None) -> MSTResult:
    ctr = counter or OpCounter()
    if barrier is not None:
        ctr.scalars["barrier_kind"] = barrier.index
    m = src.size
    if weight.size and int(weight.max()) >= (1 << 31):
        raise ValueError("weights must fit in 31 bits for edge keys")
    # Directed doubling (CSR-equivalent edge array; Section 6).
    es = np.concatenate([src, dst]).astype(np.int64)
    ed = np.concatenate([dst, src]).astype(np.int64)
    und = np.concatenate([np.arange(m), np.arange(m)]).astype(np.int64)
    key = (np.concatenate([weight, weight]).astype(np.int64) << 31) | und

    comp = np.arange(num_nodes, dtype=np.int64)
    chosen: list[np.ndarray] = []
    rounds = 0
    while rounds < max_rounds:
        if not launch_ok("mst.round"):
            continue    # absorbed transient abort: re-issue the round
        rounds += 1
        tr = TRACER.current
        if tr is not None:
            tr.on_span_begin("mst.iteration", cat="iteration", round=rounds)
        cs = comp[es]
        cd = comp[ed]
        valid = cs != cd
        n_valid = int(valid.sum())
        if tr is not None:
            tr.on_gauge("mst.valid_edges", n_valid)
        if n_valid == 0:
            if tr is not None:
                tr.on_span_end()
            break
        # ---- kernel 1: per-node minimum inter-component edge -------- #
        node_min = np.full(num_nodes, _INF, dtype=np.int64)
        atomic_min(node_min, es[valid], key[valid])
        deg_work = np.bincount(es, minlength=num_nodes)  # full scan per node
        ctr.launch("mst.k1_nodemin", items=num_nodes,
                   word_reads=2 * es.size + num_nodes,
                   word_writes=num_nodes, barriers=1,
                   work_per_thread=deg_work)
        # ---- kernel 2: per-component minimum ------------------------ #
        comp_min = np.full(num_nodes, _INF, dtype=np.int64)
        atomic_min(comp_min, comp, node_min)
        # One thread per component walks its node list (the Section 6.5
        # component-to-nodes mapping).  In late rounds a few giant
        # components dominate: that thread's serial scan is the kernel's
        # critical path — the structural reason the paper's GPU MST
        # struggles on sparse many-round graphs.
        comp_sizes = np.bincount(comp, minlength=num_nodes)
        comp_work = comp_sizes[comp_sizes > 0]
        ctr.launch("mst.k2_compmin", items=int(comp_work.size),
                   word_reads=2 * num_nodes, word_writes=int(comp_work.size),
                   barriers=1, work_per_thread=comp_work)
        # ---- kernel 3: partner + cycle breaking ---------------------- #
        has_edge = comp_min < _INF
        edge_id = (comp_min & ((1 << 31) - 1))
        partner = np.arange(num_nodes, dtype=np.int64)
        reps = np.flatnonzero(has_edge)
        # the chosen undirected edge of component c joins comp[src], comp[dst]
        eu = comp[src[edge_id[reps]]]
        ev = comp[dst[edge_id[reps]]]
        partner[reps] = np.where(eu == reps, ev, eu)
        two_cycle = partner[partner] == np.arange(num_nodes)
        rep_side = two_cycle & (np.arange(num_nodes) < partner)
        partner[rep_side] = np.arange(num_nodes)[rep_side]
        ctr.launch("mst.k3_cycle", items=int(reps.size),
                   word_reads=4 * reps.size, word_writes=reps.size,
                   barriers=1)
        # components that merge contribute their chosen edge
        merging = has_edge & (partner != np.arange(num_nodes))
        chosen.append(edge_id[merging])
        # ---- kernel 4: merge + pointer jumping ----------------------- #
        jump_rounds = 0
        while True:
            nxt = partner[partner]
            jump_rounds += 1
            if np.array_equal(nxt, partner):
                break
            partner = nxt
        comp = partner[comp]
        # Rebuild the component-to-nodes mapping: one atomic append per
        # node (the Section 6.5 dynamic-mapping cost).
        ctr.launch("mst.k4_merge", items=num_nodes,
                   word_reads=(jump_rounds + 1) * num_nodes,
                   word_writes=2 * num_nodes, atomics=num_nodes,
                   barriers=1 + jump_rounds)
        if tr is not None:
            tr.on_gauge("mst.components", int(np.unique(comp).size))
            tr.on_span_end()
    mst = np.unique(np.concatenate(chosen)) if chosen else \
        np.empty(0, dtype=np.int64)
    total = int(weight[mst].sum())
    n_comp = int(np.unique(comp).size)
    return MSTResult(mst_edges=mst, total_weight=total, counter=ctr,
                     rounds=rounds, num_components=n_comp)


# ------------------------------------------------------------------ #
# repro.serve adapter                                                #
# ------------------------------------------------------------------ #

def mst_sizes(params) -> dict:
    """``num_nodes`` (default 300) and ``num_edges`` (default four per
    node), as :func:`mst_input` reads them."""
    num_nodes = int(params.get("num_nodes", 300))
    return {"num_nodes": num_nodes,
            "num_edges": int(params.get("num_edges", 4 * num_nodes))}


def mst_input(params, seed: int):
    """The job's edge list ``(n, lo, hi, w)``: a random graph of
    :func:`mst_sizes` from ``seed``, then ``params["mutations"]``."""
    from ..graphgen import random_graph
    from ..serve.mutations import apply_graph_mutations, check_mutations

    mutations = check_mutations("mst", params.get("mutations", ()))
    sizes = mst_sizes(params)
    n, lo, hi, w = random_graph(sizes["num_nodes"], sizes["num_edges"],
                                seed=seed)
    if mutations:
        lo, hi, w = apply_graph_mutations(n, lo, hi, w, mutations)
    return n, lo, hi, w


def mst_barrier(strategy):
    """The barrier model ``strategy["barrier"]`` names, or ``None`` for
    the cost model's default."""
    from ..vgpu.sync import BARRIERS

    return BARRIERS[strategy["barrier"]] if "barrier" in strategy else None


def mst_solve(n, lo, hi, w, barrier, counter):
    """Contract the edge list; returns the job's ``(arrays, summary)``."""
    res = boruvka_gpu(n, lo, hi, w, counter=counter, barrier=barrier)
    return mst_output(res.mst_edges, w, res.rounds, res.num_components)


def mst_output(mst: np.ndarray, w: np.ndarray, rounds: int,
               num_components: int) -> tuple[tuple, dict]:
    """The job's ``(arrays, summary)`` for the MST edge ids ``mst``."""
    summary = {"total_weight": int(w[mst].sum()), "rounds": rounds,
               "num_components": num_components,
               "mst_edges": int(mst.size)}
    return (mst,), summary


def serve_job(params, strategy, seed, ctx):
    """Job adapter for :mod:`repro.serve` (``algorithm="mst"``).

    Builds a random graph (``num_nodes``, ``num_edges``) from ``seed``
    and contracts it with the component-based Boruvka kernels.
    ``strategy`` understands ``barrier`` (``"fence"`` /
    ``"hierarchical"`` / ``"naive"`` — the §7.3 pricing of the
    per-kernel round barriers); ``strategy="auto"`` substitutes the
    :mod:`repro.tune` cached/tuned configuration, and unknown keys
    raise ``ValueError``.  ``params["mutations"]`` may carry an
    ``add_edges``/``drop_edges``/``reweight_edges`` stream
    (:mod:`repro.serve.mutations`) — the dynamic-connectivity "edge
    update stream" shape — applied to the edge list before contraction.

    Composes :func:`mst_input`, :func:`mst_barrier` and
    :func:`mst_solve`, as the session planner does.
    """
    from ..tune import resolve_strategy

    strategy = resolve_strategy("mst", params, strategy)
    n, lo, hi, w = mst_input(params, seed)
    return mst_solve(n, lo, hi, w, mst_barrier(strategy), ctx.counter)
