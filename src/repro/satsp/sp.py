"""Survey propagation (paper Section 3; Braunstein, Mezard & Zecchina [4]).

One SP phase iterates the survey update over every live factor-graph
edge until the largest change drops below epsilon (or an iteration cap
fires), then computes per-variable biases and *decimates* — fixes the
most biased variables and simplifies the graph.  Phases repeat until
only trivial surveys remain or few variables are left, at which point
the residual formula goes to a simple solver (WalkSAT here).

Update equations (BMZ eqs. 26-27), for edge ``a -> i`` and each other
variable ``j`` of clause ``a``::

    PI_u(j->a) = (1 - prod_{b in O}(1 - eta_bj)) * prod_{b in S\\a}(1 - eta_bj)
    PI_s(j->a) = (1 - prod_{b in S\\a}(1 - eta_bj)) * prod_{b in O}(1 - eta_bj)
    PI_0(j->a) = prod_{b in V(j)\\a}(1 - eta_bj)
    eta_ai     = prod_{j in a\\i}  PI_u / (PI_u + PI_s + PI_0)

where ``S`` are clauses where ``j`` appears with the same sign as in
``a`` and ``O`` the opposite sign.  All products are evaluated with
group aggregates + the zero-count trick (exact exclude-one even with
surveys of exactly 1) — this is the paper's *edge caching*: per-edge
work is O(1) after two aggregate passes.  The multicore baseline lacks
that cache (Section 8.2), re-walking each variable's and clause's
neighbor lists per edge; :func:`survey_iteration` models that by
counting degree-proportional word traffic in uncached mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import OpCounter
from ..resilience.policy import launch_ok
from ..vgpu.instrument import SANITIZER, TRACER, trace_span
from .factorgraph import FactorGraph, exclude_one, _ZERO
from .formula import CNF, random_ksat
from .walksat import walksat

__all__ = ["SPConfig", "SPResult", "survey_iteration", "run_sp",
           "solve_sp", "sp_config", "sp_input", "sp_sizes", "sp_solve",
           "serve_job"]


@dataclass
class SPConfig:
    eps: float = 1e-3              # survey convergence threshold
    max_iters: int = 1000          # per SP phase
    damping: float = 0.5           # 0 = pure Jacobi; >0 stabilizes small n
    decimation_fraction: float = 0.01
    trivial_threshold: float = 0.01  # all surveys below -> paramagnetic
    solver_cutoff: int = 256       # hand off when this few vars remain
    #: hand off to the simple solver once the residual clause-to-variable
    #: ratio drops below this: the sub-formula is then out of the hard
    #: phase and WalkSAT finishes it quickly (BMZ stop when surveys go
    #: trivial, which happens in the same regime)
    handoff_ratio: float = 3.0
    #: WalkSAT flip budget; None scales with the residual size (bounded)
    walksat_flips: int | None = None
    seed: int = 0
    cached: bool = True            # paper's GPU edge cache (off = multicore)
    #: hand off rather than decimate when a phase hits max_iters without
    #: the surveys converging (BMZ treat non-convergence as failure)
    require_convergence: bool = True
    max_phases: int = 10_000


@dataclass
class SPResult:
    status: str                    # "SAT" | "UNKNOWN" | "CONTRADICTION"
    assignment: np.ndarray | None
    counter: OpCounter
    phases: int
    total_iterations: int
    fixed_by_sp: int
    solved_by_walksat: int

    @property
    def sat(self) -> bool:
        return self.status == "SAT"


def survey_iteration(fg: FactorGraph, *, counter: OpCounter | None = None,
                     cached: bool = True, damping: float = 0.0,
                     kernel: str = "sp.update") -> float:
    """One Jacobi sweep of the survey update; returns max |change|."""
    ne = fg.evar.size
    t = np.where(fg.live_edge, 1.0 - fg.eta, 1.0)
    tz = fg.live_edge & (t <= _ZERO)
    prod, zc = fg.group_aggregate(t, tz)

    gid = fg.gid
    opp = gid ^ 1
    p_same_excl = exclude_one(prod[gid], zc[gid], t, tz)
    p_same_excl = np.where(fg.live_edge, p_same_excl,
                           np.where(zc[gid] == 0, prod[gid], 0.0))
    p_opp = np.where(zc[opp] == 0, prod[opp], 0.0)

    pi_u = (1.0 - p_opp) * p_same_excl
    pi_s = (1.0 - p_same_excl) * p_opp
    pi_0 = p_same_excl * p_opp
    denom = pi_u + pi_s + pi_0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, pi_u / denom, 0.0)
    ratio = np.where(fg.live_edge, ratio, 1.0)  # dead edges are neutral

    # Clause-side exclude-one product over the dense (m, K) rows.
    rr = ratio.reshape(fg.m, fg.k)
    rz = rr <= _ZERO
    rnz = np.where(rz, 1.0, rr)
    row_prod = rnz.prod(axis=1)
    row_zc = rz.sum(axis=1)
    eta_new = exclude_one(np.repeat(row_prod, fg.k),
                          np.repeat(row_zc, fg.k), ratio, rz.ravel())
    eta_new = np.where(fg.live_edge, eta_new, 0.0)

    if damping > 0.0:
        eta_new = damping * fg.eta + (1.0 - damping) * eta_new
        eta_new = np.where(fg.live_edge, eta_new, 0.0)
    delta = float(np.max(np.abs(eta_new - fg.eta))) if ne else 0.0
    fg.eta = eta_new

    if counter is not None:
        live = fg.num_live_edges
        if cached:
            reads = 8 * live           # aggregates + O(1) per edge
        else:
            # Uncached: each edge re-walks its variable's incident list
            # (~2 K alpha edges) and its clause's K-1 siblings.
            deg = 2.0 * ne / max(1, fg.n)
            reads = int(live * (3 * deg + 3 * fg.k))
        counter.launch(kernel, items=live, word_reads=reads,
                       word_writes=live, barriers=1,
                       work_per_thread=np.full(max(1, live), 3 if cached
                                               else int(3 + deg)))
    return delta


def run_sp(fg: FactorGraph, cfg: SPConfig,
           counter: OpCounter | None = None, *,
           sanitizer=None, tracer=None,
           resilience=None) -> tuple[int, int, bool]:
    """Run SP phases with decimation until trivial/small/contradiction.

    Returns ``(phases, total_iterations, contradiction)``.
    ``sanitizer`` (opt-in) activates a :mod:`repro.analysis` detector
    around the run so the device primitives report to it; ``tracer``
    (opt-in) records SP phases as a :mod:`repro.obs` span hierarchy.
    ``resilience`` (opt-in) re-issues SP phases refused by a transient
    injected kernel abort; without it, the fault propagates typed.
    """
    with SANITIZER.maybe_activate(sanitizer):
        with TRACER.maybe_activate(tracer):
            with trace_span("satsp.run_sp", cat="driver"):
                return _run_sp_impl(fg, cfg, counter, resilience)


def _run_sp_impl(fg: FactorGraph, cfg: SPConfig,
                 counter: OpCounter | None,
                 resil=None) -> tuple[int, int, bool]:
    rng = np.random.default_rng(cfg.seed)
    phases = iters = 0
    while phases < cfg.max_phases:
        if fg.num_unfixed <= cfg.solver_cutoff or fg.num_live_clauses == 0:
            break
        if fg.num_live_clauses < cfg.handoff_ratio * fg.num_unfixed:
            break  # residual formula left the hard phase
        if not launch_ok(resil, "sp.phase"):
            continue    # absorbed transient abort: re-issue the phase
        phases += 1
        tr = TRACER.current
        if tr is not None:
            tr.on_span_begin("sp.phase", cat="iteration", phase=phases)
            tr.on_gauge("sp.unfixed", fg.num_unfixed)
            tr.on_gauge("sp.live_clauses", fg.num_live_clauses)
        for _ in range(cfg.max_iters):
            iters += 1
            delta = survey_iteration(fg, counter=counter, cached=cfg.cached,
                                      damping=cfg.damping)
            if delta < cfg.eps:
                break
        if delta >= cfg.eps and cfg.require_convergence:
            if tr is not None:
                tr.on_span_end()
            break  # unconverged surveys: decimating on them is noise
        bias = fg.biases()
        if counter is not None:
            counter.launch("sp.bias", items=fg.num_unfixed,
                           word_reads=4 * fg.num_live_edges,
                           word_writes=fg.n, barriers=1)
        live_eta = fg.eta[fg.live_edge]
        unfixed = fg.fixed < 0
        trivial_surveys = live_eta.size == 0 or \
            float(live_eta.max()) < cfg.trivial_threshold
        if trivial_surveys or not np.any(np.abs(bias[unfixed])
                                         > cfg.trivial_threshold):
            if tr is not None:
                tr.on_span_end()
            break  # paramagnetic state: hand off to the simple solver
        rep = fg.decimate(bias, fraction=cfg.decimation_fraction,
                          at_least=1)
        if counter is not None:
            counter.launch("sp.decimate", items=rep.fixed,
                           word_writes=2 * rep.edges_removed + rep.fixed,
                           atomics=rep.clauses_removed, barriers=1)
        if tr is not None:
            tr.on_span_end()
        if rep.contradiction:
            return phases, iters, True
        _ = rng  # reserved for future randomized decimation policies
    return phases, iters, False


def solve_sp(cnf: CNF, cfg: SPConfig | None = None,
             counter: OpCounter | None = None, *,
             sanitizer=None, tracer=None, resilience=None) -> SPResult:
    """Full pipeline: SP + decimation, then WalkSAT on the residual."""
    cfg = cfg or SPConfig()
    ctr = counter or OpCounter()
    fg = FactorGraph(cnf, seed=cfg.seed)
    phases, iters, contradiction = run_sp(fg, cfg, ctr,
                                          sanitizer=sanitizer,
                                          tracer=tracer,
                                          resilience=resilience)
    if contradiction:
        return SPResult("CONTRADICTION", None, ctr, phases, iters,
                        fixed_by_sp=int((fg.fixed >= 0).sum()),
                        solved_by_walksat=0)
    residual, var_map, _ = fg.residual_cnf()
    fixed_by_sp = int((fg.fixed >= 0).sum())
    if residual.num_clauses == 0:
        assignment = fg.full_assignment()
        status = "SAT" if cnf.check(assignment) else "UNKNOWN"
        return SPResult(status, assignment if status == "SAT" else None,
                        ctr, phases, iters, fixed_by_sp, 0)
    flips = cfg.walksat_flips
    if flips is None:
        flips = min(max(50_000, 100 * residual.num_vars), 300_000)
    with TRACER.maybe_activate(tracer):
        with trace_span("satsp.walksat", cat="driver",
                        residual_vars=residual.num_vars):
            ws = walksat(residual, max_flips=flips, seed=cfg.seed,
                         restarts=2, counter=ctr)
    if ws is None:
        return SPResult("UNKNOWN", None, ctr, phases, iters, fixed_by_sp, 0)
    assignment = fg.full_assignment(ws, var_map)
    status = "SAT" if cnf.check(assignment) else "UNKNOWN"
    return SPResult(status, assignment if status == "SAT" else None, ctr,
                    phases, iters, fixed_by_sp,
                    solved_by_walksat=int(residual.num_vars))


# ------------------------------------------------------------------ #
# repro.serve adapter                                                #
# ------------------------------------------------------------------ #

def sp_sizes(params) -> dict:
    """``num_vars`` (default 200), as :func:`sp_input` reads it."""
    return {"num_vars": int(params.get("num_vars", 200))}


def sp_input(params, seed: int) -> CNF:
    """The job's formula: random K-SAT over :func:`sp_sizes` (``k``
    default 3, ``ratio`` default 3.2) from ``seed``, then
    ``params["mutations"]``."""
    from ..serve.mutations import apply_clause_mutations, check_mutations

    mutations = check_mutations("sp", params.get("mutations", ()))
    cnf = random_ksat(sp_sizes(params)["num_vars"], int(params.get("k", 3)),
                      ratio=float(params.get("ratio", 3.2)), seed=seed)
    if mutations:
        cnf = apply_clause_mutations(cnf, mutations)
    return cnf


def sp_config(strategy, seed: int) -> SPConfig:
    """The :class:`SPConfig` a strategy dict describes."""
    kwargs = {k: strategy[k] for k in
              ("cached", "damping", "eps", "decimation_fraction",
               "require_convergence") if k in strategy}
    return SPConfig(seed=seed, **kwargs)


def sp_solve(cnf: CNF, cfg: SPConfig, counter, resilience=None):
    """Run SP + WalkSAT; returns the job's ``(arrays, summary)``."""
    res = solve_sp(cnf, cfg, counter=counter, resilience=resilience)
    assignment = (res.assignment if res.assignment is not None
                  else np.zeros(0, dtype=np.int64))
    summary = {"status": res.status, "phases": res.phases,
               "total_iterations": res.total_iterations,
               "fixed_by_sp": res.fixed_by_sp,
               "solved_by_walksat": res.solved_by_walksat}
    return (assignment,), summary


def serve_job(params, strategy, seed, ctx):
    """Job adapter for :mod:`repro.serve` (``algorithm="sp"``).

    Builds a random K-SAT formula (``num_vars``, ``k``, ``ratio``) from
    ``seed`` and runs the full SP + WalkSAT pipeline.  ``strategy``
    keys map onto :class:`SPConfig`: ``cached`` (the paper's GPU edge
    cache; False models the multicore baseline), ``damping``, ``eps``,
    ``decimation_fraction``, ``require_convergence``.
    ``strategy="auto"`` substitutes the :mod:`repro.tune`
    cached/tuned configuration, and unknown keys raise ``ValueError``.
    ``params["mutations"]`` may carry an ``add_clauses``/``drop_clauses``
    stream (:mod:`repro.serve.mutations`) applied to the generated
    formula before solving.

    Composes :func:`sp_input`, :func:`sp_config` and :func:`sp_solve`,
    as the session planner does.
    """
    from ..tune import resolve_strategy

    strategy = resolve_strategy("sp", params, strategy)
    return sp_solve(sp_input(params, seed), sp_config(strategy, seed),
                    ctx.counter, getattr(ctx, "resilience", None))
