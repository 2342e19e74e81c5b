"""GPU-style Andersen points-to analysis (paper Sections 4, 6.4, 8.3).

Two-phase fixed-point iteration, exactly as the paper describes:

* **Phase 1 (edge addition)** — load (``p = *q``) and store (``*p = q``)
  constraints are evaluated against the current points-to sets and add
  their induced copy edges to the constraint graph; the per-node
  incoming-edge lists grow through the Kernel-Only chunk allocator.
* **Phase 2 (propagation)** — *pull-based*: each node with enabled
  incoming neighbors ORs their points-to sets into its own.  One thread
  per node means no synchronization; stale reads are safe by
  monotonicity.  Nodes with changed sets are "enabled" and moved to one
  side of the work array (Section 7.6) for the next sweep.

The phases repeat until neither adds information.  Points-to sets are
bit vectors (:class:`~repro.pta.bitset.BitMatrix`), as in [18].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import OpCounter
from ..resilience.addition import FallbackStorage
from ..resilience.policy import launch_ok, maybe_activate_resilience
from ..vgpu.instrument import SANITIZER, TRACER, trace_span
from .bitset import BitMatrix
from .constraints import Constraints, Kind
from .graph import PullGraph

__all__ = ["PTAResult", "andersen_pull", "serve_job"]


@dataclass
class PTAResult:
    pts: BitMatrix
    counter: OpCounter
    rounds: int
    edges_added: int
    propagation_sweeps: int
    #: the final constraint graph (:class:`~repro.pta.graph.PullGraph`),
    #: so incremental consumers (:mod:`repro.sessions`) can warm-start
    #: the fixed point instead of re-deriving every induced edge
    graph: PullGraph | None = None

    def points_to(self, var: int) -> np.ndarray:
        return self.pts.members(var)

    def total_facts(self) -> int:
        return int(self.pts.counts().sum())


def andersen_pull(cons: Constraints, *, chunk_size: int = 1024,
                  counter: OpCounter | None = None,
                  rep: np.ndarray | None = None,
                  max_rounds: int = 10_000,
                  sanitizer=None, tracer=None,
                  resilience=None) -> PTAResult:
    """Pull-based inclusion analysis; returns the fixed-point solution.

    ``rep`` (from :func:`repro.pta.cycles.collapse_cycles`) maps every
    variable to its copy-SCC representative; when given, dynamically
    added edge endpoints are routed through it so points-to facts
    accumulate at representatives.  Query the result via
    :func:`repro.pta.cycles.expand_solution`.

    ``sanitizer`` (opt-in) activates a :mod:`repro.analysis` detector
    around the solve; the bit-matrix's atomic-or traffic and the chunk
    allocator report to it.  ``tracer`` (opt-in) records the
    addedge/propagate rounds as a :mod:`repro.obs` span hierarchy.
    ``resilience`` (opt-in) puts the edge lists behind the §7.1
    fallback chain (Kernel-Only -> Kernel-Host -> Host-Only) and
    re-issues rounds refused by transient injected kernel aborts; the
    fixed point is a set, so a degraded run's result is byte-identical.
    """
    with SANITIZER.maybe_activate(sanitizer):
        with TRACER.maybe_activate(tracer):
            with maybe_activate_resilience(resilience):
                with trace_span("pta.andersen_pull", cat="driver"):
                    return _andersen_pull_impl(cons, chunk_size=chunk_size,
                                               counter=counter, rep=rep,
                                               max_rounds=max_rounds,
                                               resil=resilience)


def _andersen_pull_impl(cons: Constraints, *, chunk_size: int,
                        counter: OpCounter | None,
                        rep: np.ndarray | None,
                        max_rounds: int, resil=None) -> PTAResult:
    n = cons.num_vars
    if rep is None:
        rep = np.arange(n, dtype=np.int64)
    ctr = counter or OpCounter()
    pts = BitMatrix(n, n)
    W = pts.words
    storage = (FallbackStorage(n, chunk_size, resilience=resil)
               if resil is not None else None)
    graph = PullGraph(n, chunk_size, storage=storage)

    # Initialization kernel: address-of constraints seed the sets.
    p_addr, q_addr = cons.of_kind(Kind.ADDRESS_OF)
    pts.add(p_addr, q_addr)
    ctr.launch("pta.init", items=int(p_addr.size),
               word_writes=int(p_addr.size), barriers=1)

    # Static copy edges: q -> p (pts(p) >= pts(q)); filed as incoming[p].
    p_copy, q_copy = cons.of_kind(Kind.COPY)
    edges_added = graph.add_edges(q_copy, p_copy)
    ctr.launch("pta.addedge", items=int(p_copy.size),
               word_writes=2 * int(p_copy.size), barriers=1)

    p_load, q_load = cons.of_kind(Kind.LOAD)
    p_store, q_store = cons.of_kind(Kind.STORE)

    changed = np.ones(n, dtype=bool)   # nodes whose pts changed last sweep
    rounds = sweeps = 0
    while rounds < max_rounds:
        if not launch_ok(resil, "pta.round"):
            continue    # absorbed transient abort: re-issue the round
        rounds += 1
        tr = TRACER.current
        if tr is not None:
            tr.on_span_begin("pta.iteration", cat="iteration", round=rounds)
            tr.on_gauge("pta.enabled", int(changed.sum()))
        # ---- Phase 1: evaluate load/store constraints, add edges ---- #
        new_src: list[np.ndarray] = []
        new_dst: list[np.ndarray] = []
        ls_work = np.zeros(p_load.size + p_store.size, dtype=np.int64)
        reads = 0
        for i, (p, q) in enumerate(zip(p_load.tolist(), q_load.tolist())):
            if not changed[q] and rounds > 1:
                ls_work[i] = 1
                continue
            vs = pts.members(q)
            reads += W + vs.size
            ls_work[i] = 1 + vs.size
            if vs.size:
                new_src.append(rep[vs])
                new_dst.append(np.full(vs.size, p, dtype=np.int64))
        for i, (p, q) in enumerate(zip(p_store.tolist(), q_store.tolist())):
            j = p_load.size + i
            if not changed[p] and rounds > 1:
                ls_work[j] = 1
                continue
            vs = pts.members(p)
            reads += W + vs.size
            ls_work[j] = 1 + vs.size
            if vs.size:
                new_src.append(np.full(vs.size, q, dtype=np.int64))
                new_dst.append(rep[vs])
        added = 0
        if new_src:
            before = graph.alloc.chunks_allocated
            added = graph.add_edges(np.concatenate(new_src),
                                    np.concatenate(new_dst))
            ctr.bump("pta.chunks_malloced",
                     graph.alloc.chunks_allocated - before)
        edges_added += added
        ctr.launch("pta.addedge", items=int(ls_work.size), word_reads=reads,
                   word_writes=2 * added, barriers=1,
                   work_per_thread=ls_work)

        # ---- Phase 2: pull-based propagation sweep ------------------ #
        touched = changed.copy()
        new_changed = np.zeros(n, dtype=bool)
        # A node must pull if any incoming neighbor changed, or it just
        # gained edges (cheap conservative trigger: pull when any
        # incoming neighbor is touched; fresh edges came from touched
        # sources by construction of phase 1).
        pull_nodes = []
        pull_work = []
        reads = writes = 0
        for v in range(n):
            inc = graph.incoming(v)
            if inc.size == 0:
                continue
            if added == 0 and not touched[inc].any():
                continue
            pull_nodes.append(v)
            pull_work.append(1 + inc.size)
            reads += (inc.size + 1) * W
            if pts.union_into(v, inc):
                new_changed[v] = True
                writes += W
        sweeps += 1
        # Section 7.6: enabled nodes are compacted to one side, so warp
        # lanes see uniform work; the work vector is recorded sorted.
        work = np.asarray(sorted(pull_work, reverse=True), dtype=np.int64) \
            if pull_nodes else np.zeros(1, dtype=np.int64)
        ctr.launch("pta.propagate", items=len(pull_nodes), word_reads=reads,
                   word_writes=writes, barriers=1, work_per_thread=work)
        changed = new_changed
        if tr is not None:
            tr.on_gauge("pta.changed", int(changed.sum()))
            tr.on_gauge("pta.chunks", graph.alloc.chunks_allocated)
            tr.on_span_end()
        if not changed.any() and added == 0:
            break
    return PTAResult(pts=pts, counter=ctr, rounds=rounds,
                     edges_added=edges_added, propagation_sweeps=sweeps,
                     graph=graph)


# ------------------------------------------------------------------ #
# repro.serve adapter                                                #
# ------------------------------------------------------------------ #

def serve_job(params, strategy, seed, ctx):
    """Job adapter for :mod:`repro.serve` (``algorithm="pta"``).

    Synthesizes a C-like constraint set (``num_vars``,
    ``num_constraints``) from ``seed`` and solves it.  ``strategy``
    understands ``chunk_size`` (the Kernel-Only allocator granule) and
    ``variant`` (``"pull"``, the paper's choice, or ``"push"`` — the
    §6.4 alternative; both reach the identical fixed point).
    ``strategy="auto"`` substitutes the :mod:`repro.tune`
    cached/tuned configuration, and unknown keys raise ``ValueError``.
    ``params["mutations"]`` may carry an
    ``add_constraints``/``drop_constraints`` stream
    (:mod:`repro.serve.mutations`) — the incremental-PTA "new
    constraints arrive" shape — applied before solving.
    """
    from ..serve.mutations import apply_constraint_mutations, check_mutations
    from ..tune import resolve_strategy
    from .constraints import generate_constraints

    strategy = resolve_strategy("pta", params, strategy)
    mutations = check_mutations("pta", params.get("mutations", ()))
    cons = generate_constraints(int(params.get("num_vars", 120)),
                                int(params.get("num_constraints", 200)),
                                seed=seed)
    if mutations:
        cons = apply_constraint_mutations(cons, mutations)
    variant = strategy.get("variant", "pull")
    if variant == "pull":
        solver = andersen_pull
    else:
        from .push import andersen_push
        solver = andersen_push
    res = solver(cons, counter=ctx.counter,
                 chunk_size=int(strategy.get("chunk_size", 1024)),
                 resilience=getattr(ctx, "resilience", None))
    summary = {"rounds": res.rounds, "edges_added": res.edges_added,
               "propagation_sweeps": res.propagation_sweeps,
               "total_facts": res.total_facts(), "variant": variant}
    return (res.pts.bits, res.pts.counts()), summary
