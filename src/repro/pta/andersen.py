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

On the host, each phase is a few array passes.  :func:`induced_edges`
evaluates every live load/store at once from one batched
:meth:`~repro.pta.bitset.BitMatrix.members_of` call; the graph
(:class:`~repro.pta.graph.PullGraph`) deduplicates the batch against
its flat sorted edge index and models the Kernel-Only chunks from
degree growth.  :func:`pull_sweep` picks the pulling nodes with one
``reduceat`` over the index's CSR view, then runs their unions one at
a time in ascending node order, so each reads rows pulled earlier in
the same sweep (Gauss–Seidel).  That order is what keeps ``changed``,
the round and sweep counts and every counter identical to a scalar
loop over nodes.  The session planner's warm start
(:mod:`repro.sessions.planners.pta`) shares both helpers; each driver
prices its own launches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import OpCounter
from ..resilience.addition import FallbackStorage
from ..resilience.policy import launch_ok
from ..vgpu.instrument import SANITIZER, TRACER, trace_span
from .bitset import BitMatrix
from .constraints import Constraints, Kind, generate_constraints
from .graph import PullGraph

__all__ = ["PTAResult", "andersen_pull", "deref_pointers",
           "induced_edges", "pta_config", "pta_input", "pta_output",
           "pta_sizes", "pta_solve", "pull_sweep", "serve_job"]


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

    loads = cons.of_kind(Kind.LOAD)
    stores = cons.of_kind(Kind.STORE)
    pointers = deref_pointers(loads, stores)

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
        live = (np.ones(pointers.size, dtype=bool) if rounds == 1
                else changed[pointers])
        src, dst, sizes = induced_edges(pts, loads, stores, live, rep)
        added = 0
        if src.size:
            before = graph.alloc.chunks_allocated
            added = graph.add_edges(src, dst)
            ctr.bump("pta.chunks_malloced",
                     graph.alloc.chunks_allocated - before)
        edges_added += added
        ctr.launch("pta.addedge", items=int(pointers.size),
                   word_reads=W * int(live.sum()) + int(sizes.sum()),
                   word_writes=2 * added, barriers=1,
                   work_per_thread=1 + sizes)

        # ---- Phase 2: pull-based propagation sweep ------------------ #
        # A node must pull if any incoming neighbor changed, or it just
        # gained edges (cheap conservative trigger: every node pulls
        # after an edge addition; fresh edges came from touched sources
        # by construction of phase 1).
        new_changed, pulled = pull_sweep(pts, graph, changed, added > 0)
        sweeps += 1
        # Section 7.6: enabled nodes are compacted to one side, so warp
        # lanes see uniform work; the work vector is recorded sorted.
        work = (np.sort(graph.deg[pulled] + 1)[::-1] if pulled.size
                else np.zeros(1, dtype=np.int64))
        ctr.launch("pta.propagate", items=int(pulled.size),
                   word_reads=W * int((graph.deg[pulled] + 1).sum()),
                   word_writes=W * int(new_changed.sum()), barriers=1,
                   work_per_thread=work)
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


def deref_pointers(loads, stores) -> np.ndarray:
    """The dereferenced pointer of every load (``p = *q``: ``q``) and
    store (``*p = q``: ``p``), loads first — the variable whose change
    re-enables the constraint."""
    return np.concatenate([loads[1], stores[0]])


def induced_edges(pts: BitMatrix, loads, stores, live: np.ndarray,
                  rep: np.ndarray | None = None):
    """Phase 1 (§6.4): the copy edges the ``live`` constraints induce.

    ``loads``/``stores`` are ``(p, q)`` pairs from
    :meth:`~repro.pta.constraints.Constraints.of_kind`; ``live`` masks
    them, loads first (as :func:`deref_pointers`).  A live load
    ``p = *q`` adds ``v -> p`` and a live store ``*p = q`` adds
    ``q -> v`` for every ``v`` in the pointer's set, with ``v`` routed
    through ``rep`` when given.  Returns ``(src, dst, sizes)``;
    ``sizes[i]`` is the pointer's set size for a live constraint and 0
    otherwise, from which each driver prices its own launch.
    """
    p_load, q_load = loads
    p_store, q_store = stores
    pointer = deref_pointers(loads, stores)
    fixed = np.concatenate([p_load, q_store])
    idx = np.flatnonzero(live)
    pos, members = pts.members_of(pointer[idx])
    sizes = np.zeros(pointer.size, dtype=np.int64)
    sizes[idx] = np.bincount(pos, minlength=idx.size)
    target = members if rep is None else rep[members]
    end = fixed[idx][pos]
    is_load = idx[pos] < p_load.size
    return (np.where(is_load, target, end), np.where(is_load, end, target),
            sizes)


def pull_sweep(pts: BitMatrix, graph: PullGraph, touched: np.ndarray,
               forced) -> tuple[np.ndarray, np.ndarray]:
    """Phase 2 (§6.4): one pull-based propagation sweep.

    A node with incoming edges pulls when ``forced`` (a bool, or a
    per-node mask) or when any incoming neighbor is ``touched``; the
    candidate test is one ``logical_or.reduceat`` over the CSR view.
    The candidates then OR in their neighbors' sets one at a time in
    ascending node order, so a node reads rows pulled earlier in the
    same sweep (Gauss–Seidel, as the sequential reference loop did).
    Returns ``(changed, pulled)``: the nodes whose set grew, as a
    mask, and the nodes that pulled, ascending.
    """
    indptr, ids = graph.csr()
    has = graph.deg > 0
    pull = has & forced
    if ids.size:
        pull[has] |= np.logical_or.reduceat(touched[ids], indptr[:-1][has])
    pulled = np.flatnonzero(pull)
    changed = np.zeros(graph.num_nodes, dtype=bool)
    for v in pulled.tolist():
        if pts.union_into(v, ids[indptr[v]: indptr[v + 1]]):
            changed[v] = True
    return changed, pulled


# ------------------------------------------------------------------ #
# repro.serve adapter                                                #
# ------------------------------------------------------------------ #

def pta_sizes(params) -> dict:
    """``num_vars`` (default 120) and ``num_constraints`` (default 200),
    as :func:`pta_input` reads them."""
    return {"num_vars": int(params.get("num_vars", 120)),
            "num_constraints": int(params.get("num_constraints", 200))}


def pta_input(params, seed: int) -> Constraints:
    """The job's constraint set: :func:`pta_sizes` synthesized from
    ``seed``, then ``params["mutations"]``."""
    from ..serve.mutations import apply_constraint_mutations, check_mutations

    mutations = check_mutations("pta", params.get("mutations", ()))
    sizes = pta_sizes(params)
    cons = generate_constraints(sizes["num_vars"], sizes["num_constraints"],
                                seed=seed)
    if mutations:
        cons = apply_constraint_mutations(cons, mutations)
    return cons


def pta_config(strategy) -> tuple[str, int]:
    """``(variant, chunk_size)``: ``"pull"`` (the default) or
    ``"push"``, and the Kernel-Only allocator granule."""
    return (strategy.get("variant", "pull"),
            int(strategy.get("chunk_size", 1024)))


def pta_solve(cons: Constraints, variant: str, chunk_size: int, counter,
              resilience=None) -> PTAResult:
    """Solve ``cons`` with the ``variant`` solver."""
    solver = andersen_pull
    if variant != "pull":
        from .push import andersen_push as solver
    return solver(cons, counter=counter, chunk_size=chunk_size,
                  resilience=resilience)


def pta_output(pts: BitMatrix, rounds: int, edges_added: int, sweeps: int,
               variant: str) -> tuple[tuple, dict]:
    """The job's ``(arrays, summary)`` for the fixed point ``pts``."""
    counts = pts.counts()
    summary = {"rounds": int(rounds), "edges_added": int(edges_added),
               "propagation_sweeps": int(sweeps),
               "total_facts": int(counts.sum()), "variant": variant}
    return (pts.bits, counts), summary


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

    Composes :func:`pta_input`, :func:`pta_config`, :func:`pta_solve`
    and :func:`pta_output`, as the session planner does.
    """
    from ..tune import resolve_strategy

    strategy = resolve_strategy("pta", params, strategy)
    variant, chunk_size = pta_config(strategy)
    res = pta_solve(pta_input(params, seed), variant, chunk_size,
                    ctx.counter, getattr(ctx, "resilience", None))
    return pta_output(res.pts, res.rounds, res.edges_added,
                      res.propagation_sweeps, variant)
