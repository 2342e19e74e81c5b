"""Job specifications and the algorithm registry for ``repro.serve``.

A :class:`JobSpec` is everything needed to (re)run one morph job
anywhere: the algorithm name, the input-generator parameters, the
strategy configuration (conflict scheme, barrier model, worklist and
addition/deletion choices — whatever the driver understands), the seed,
and the robustness envelope (timeout, retries, checkpoint cadence,
fault plan).  Specs are plain data — JSON-able for the
``python -m repro.serve`` CLI and picklable for the gateway's workers —
and deterministic: the same spec always produces byte-identical
results, which is what makes retry-after-failure and inline-vs-gateway
comparisons meaningful.

The registry maps algorithm names to *adapters*.  Each driver module
owns its adapter (``serve_job`` in :mod:`repro.dmr.refine`,
:mod:`repro.meshing.gpu_insert`, :mod:`repro.satsp.sp`,
:mod:`repro.pta.andersen`, :mod:`repro.mst.boruvka_gpu`); the generic
engine's speculative-recoloring workload lives here because it is the
one that exercises the engine's checkpoint hooks end to end.  An
adapter has the uniform signature::

    adapter(params, strategy, seed, ctx) -> (arrays, summary)

building its input deterministically from ``params`` + ``seed``,
running the driver with ``ctx.counter``, and returning the result
arrays folded into the job digest plus a scalar summary.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..core.counters import OpCounter
from ..core.engine import EngineCheckpoint, MorphPlan, run_morph_rounds
from .faults import FaultPlan

__all__ = ["JobSpec", "JobContext", "JobResult", "JobError",
           "digest_arrays", "get_adapter", "known_algorithms",
           "estimate_cost", "engine_input", "engine_sizes", "engine_solve"]


class JobError(RuntimeError):
    """A job failed in a way the pool may retry."""


@dataclass(frozen=True)
class JobSpec:
    """One schedulable morph job (plain, picklable, JSON-able data)."""

    name: str
    algorithm: str                      # dmr|insertion|sp|pta|mst|engine
    params: dict = field(default_factory=dict)
    #: strategy dict for the driver, the string ``"auto"`` (substitute
    #: the :mod:`repro.tune` cached/tuned config), or a dict carrying
    #: ``tuned: true`` plus per-axis overrides
    strategy: dict | str = field(default_factory=dict)
    seed: int = 0
    #: cooperative wall-clock budget per attempt (None = unlimited)
    timeout_s: float | None = None
    #: additional attempts after the first failure
    retries: int = 2
    #: first retry backoff; doubles per attempt (exponential backoff)
    backoff_s: float = 0.05
    #: checkpoint cadence in engine rounds (0 = no checkpoints)
    checkpoint_every: int = 0
    fault: FaultPlan | None = None
    #: opt into graceful degradation: the attempt runs with a fresh
    #: :class:`repro.resilience.Resilience`, so injected device faults
    #: are absorbed by the §7.1/§7.2 fallback chains instead of failing
    #: the attempt
    resilience: bool = False

    def to_dict(self) -> dict:
        strategy = (self.strategy if isinstance(self.strategy, str)
                    else dict(self.strategy))
        d = {"name": self.name, "algorithm": self.algorithm,
             "params": dict(self.params), "strategy": strategy,
             "seed": self.seed, "timeout_s": self.timeout_s,
             "retries": self.retries, "backoff_s": self.backoff_s,
             "checkpoint_every": self.checkpoint_every}
        if self.fault is not None:
            d["fault"] = self.fault.to_dict()
        if self.resilience:
            d["resilience"] = True
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "JobSpec":
        fault = d.get("fault")
        strategy = d.get("strategy", {})
        return cls(
            name=d["name"], algorithm=d["algorithm"],
            params=dict(d.get("params", {})),
            strategy=strategy if isinstance(strategy, str)
            else dict(strategy),
            seed=int(d.get("seed", 0)),
            timeout_s=d.get("timeout_s"),
            retries=int(d.get("retries", 2)),
            backoff_s=float(d.get("backoff_s", 0.05)),
            checkpoint_every=int(d.get("checkpoint_every", 0)),
            fault=FaultPlan.from_dict(fault) if fault else None,
            resilience=bool(d.get("resilience", False)),
        )


@dataclass
class JobContext:
    """Runtime facilities the job runner hands to an adapter.

    The attempt's clients (fault injector, resilience, tracer,
    sanitizer) are not among them: they sit in the
    :mod:`repro.vgpu.instrument` hook slots for the attempt.
    """

    counter: OpCounter
    #: called at the top of each engine round (faults + deadline)
    round_hook: Callable[[int], None] | None = None
    checkpoint_every: int = 0
    #: persist an :class:`EngineCheckpoint` (None when checkpointing off)
    save_checkpoint: Callable[[object], None] | None = None
    #: the checkpoint this attempt resumes from, if any
    resume_state: object | None = None


@dataclass
class JobResult:
    """What a completed job sends back across the process boundary."""

    name: str
    algorithm: str
    digest: str
    summary: dict
    counter: OpCounter

    def counter_totals(self) -> dict:
        return {kname: (ks.launches, ks.items, ks.aborted, ks.word_reads,
                        ks.word_writes, ks.atomics, ks.barriers,
                        ks.issued_lane_steps, ks.useful_lane_steps)
                for kname, ks in self.counter}


def digest_arrays(arrays, extra: Mapping | None = None) -> str:
    """SHA-256 over result arrays (dtype+shape+bytes) and scalar facts.

    This is the byte-identity witness: two runs of the same spec —
    inline or through the gateway, or interrupted and resumed — must
    produce the same digest.
    """
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    if extra:
        h.update(json.dumps(dict(extra), sort_keys=True,
                            default=repr).encode())
    return h.hexdigest()


# ------------------------------------------------------------------ #
# The generic-engine job: speculative graph recoloring                #
# ------------------------------------------------------------------ #

class _ServeColoring:
    """Greedy coloring by speculative recoloring (the §10 "other morph
    algorithms" workload), structured so its whole mutable state is one
    array — which is exactly what a checkpoint payload wants to be."""

    def __init__(self, graph, colors: np.ndarray) -> None:
        self.g = graph
        self.colors = colors

    def conflicted(self):
        out = []
        for v in range(self.g.num_nodes):
            if any(self.colors[u] == self.colors[v]
                   for u in self.g.neighbors(v)):
                out.append(v)
        return out

    def plan(self, items, rng):
        for v in items:
            yield MorphPlan(item=v,
                            claims=[v] + self.g.neighbors(v).tolist())

    def apply(self, plan) -> bool:
        v = plan.item
        used = {int(self.colors[u]) for u in self.g.neighbors(v)}
        c = 0
        while c in used:
            c += 1
        self.colors[v] = c
        return True


def engine_sizes(params) -> dict:
    """``num_nodes`` (default 200) and ``num_edges`` (default three per
    node), as :func:`engine_input` reads them."""
    num_nodes = int(params.get("num_nodes", 200))
    return {"num_nodes": num_nodes,
            "num_edges": int(params.get("num_edges", 3 * num_nodes))}


def engine_input(params: Mapping, seed: int):
    """The job's edge list ``(n, lo, hi, w)``: a random graph of
    :func:`engine_sizes` from ``seed``, then ``params["mutations"]``."""
    from ..graphgen import random_graph
    from .mutations import apply_graph_mutations, check_mutations

    mutations = check_mutations("engine", params.get("mutations", ()))
    sizes = engine_sizes(params)
    n, lo, hi, w = random_graph(sizes["num_nodes"], sizes["num_edges"],
                                seed=seed)
    if mutations:
        lo, hi, w = apply_graph_mutations(n, lo, hi, w, mutations)
    return n, lo, hi, w


def engine_solve(n, lo, hi, w, params: Mapping, strategy: Mapping,
                 seed: int, ctx: JobContext):
    """Recolor the graph via :func:`repro.core.engine.run_morph_rounds`
    under ``ctx``'s counter, round hook, checkpoint cadence and resume
    state; returns the job's ``(arrays, summary)``."""
    from ..graphgen import undirected_edges_to_csr

    g = undirected_edges_to_csr(n, lo, hi, w)
    colors = np.random.default_rng(seed).integers(0, 2, size=n)
    work = _ServeColoring(g, colors)
    rng = np.random.default_rng(seed + 1)

    resume = ctx.resume_state
    if resume is not None:
        if not isinstance(resume, EngineCheckpoint):
            raise JobError("engine job got a foreign checkpoint payload")
        work.colors = np.array(resume.payload, dtype=colors.dtype)

    stats = run_morph_rounds(
        work.conflicted, work.plan, work.apply, lambda: g.num_nodes,
        rng=rng, counter=ctx.counter,
        kernel="serve.recolor",
        ensure_progress=bool(strategy.get("ensure_progress", True)),
        max_rounds=int(params.get("max_rounds", 1_000_000)),
        round_hook=ctx.round_hook,
        checkpoint_every=ctx.checkpoint_every,
        snapshot=lambda: work.colors.copy(),
        on_checkpoint=ctx.save_checkpoint,
        resume=resume,
    )
    summary = {"rounds": stats.rounds, "applied": stats.applied,
               "aborted": stats.aborted,
               "num_colors": int(work.colors.max()) + 1,
               "proper": not work.conflicted()}
    return (work.colors,), summary


def _engine_job(params: Mapping, strategy: Mapping, seed: int,
                ctx: JobContext):
    """Adapter for ``algorithm="engine"``: recolor a random graph via
    :func:`repro.core.engine.run_morph_rounds`, with full
    checkpoint/resume support.  ``params["mutations"]`` may carry an
    ``add_edges``/``drop_edges``/``reweight_edges`` stream
    (:mod:`repro.serve.mutations`) applied to the edge list before the
    graph is frozen into CSR.  Composes :func:`engine_input` and
    :func:`engine_solve`, as the session planner does.
    """
    from ..tune import resolve_strategy

    strategy = resolve_strategy("engine", params, strategy)
    n, lo, hi, w = engine_input(params, seed)
    return engine_solve(n, lo, hi, w, params, strategy, seed, ctx)


# ------------------------------------------------------------------ #
# Registry                                                            #
# ------------------------------------------------------------------ #

_REGISTRY: dict[str, Callable] | None = None


def _build_registry() -> dict[str, Callable]:
    # Lazy: importing six driver stacks is not free, and worker
    # processes should only pay for it once, on first use.  Import the
    # adapters directly — some packages re-export a function under the
    # same name as its submodule (e.g. ``repro.mst.boruvka_gpu``), which
    # shadows attribute-style module access.
    from ..dmr.refine import serve_job as _dmr_job
    from ..meshing.gpu_insert import serve_job as _ins_job
    from ..mst.boruvka_gpu import serve_job as _mst_job
    from ..pta.andersen import serve_job as _pta_job
    from ..satsp.sp import serve_job as _sp_job
    return {
        "dmr": _dmr_job,
        "insertion": _ins_job,
        "sp": _sp_job,
        "pta": _pta_job,
        "mst": _mst_job,
        "engine": _engine_job,
    }


def get_adapter(algorithm: str) -> Callable:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    try:
        return _REGISTRY[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def known_algorithms() -> list[str]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return sorted(_REGISTRY)


#: static per-work-item weights for the SJF cost proxy, by algorithm
_COST_WEIGHTS = {"dmr": 30.0, "insertion": 20.0, "sp": 60.0,
                 "pta": 0.15, "mst": 8.0, "engine": 5.0}


def estimate_cost(spec: JobSpec, cache=None) -> float:
    """A deterministic service-time proxy for SJF ordering.

    By default the proxy is static — derived only from the spec's
    input-size parameters (never from a run), so scheduling decisions
    are reproducible and available before any work starts.  Units are
    arbitrary; only the ordering matters.

    When a :class:`repro.tune.TuningCache` is supplied and holds an
    entry for this job's ``(algorithm, input fingerprint)``, the
    entry's *measured* proxy — the tuned config's modeled GPU time —
    replaces the static guess.  It is reported on a microsecond axis,
    which keeps measured entries in the same ballpark as the hand-set
    static weights so mixed (cached + uncached) batches still order
    sanely; jobs without a cache entry fall back unchanged.

    Session jobs (a ``params["session"]`` batch stream, see
    :mod:`repro.sessions`) cost their cold open plus a small per-batch
    increment — deltas are far cheaper than full recomputes, which is
    the subsystem's whole point, but they are not free.
    """
    if cache is not None:
        from ..tune import fingerprint_params

        record = cache.get(spec.algorithm,
                           fingerprint_params(spec.algorithm, spec.params))
        if record is not None:
            return record.modeled_gpu_s * 1e6
    env = spec.params.get("session")
    if env:
        batches = len(env.get("batches", ()))
        return _static_cost(spec) * (1.0 + 0.25 * batches)
    return _static_cost(spec)


def _static_cost(spec: JobSpec) -> float:
    p = spec.params
    if spec.algorithm == "dmr":
        return _COST_WEIGHTS["dmr"] * float(p.get("n_triangles", 600))
    if spec.algorithm == "insertion":
        return _COST_WEIGHTS["insertion"] * (
            float(p.get("n_triangles", 300)) + 40.0 * float(p.get("n_points", 12)))
    if spec.algorithm == "sp":
        ratio = float(p.get("ratio", 3.2))
        return _COST_WEIGHTS["sp"] * float(p.get("num_vars", 200)) * ratio
    if spec.algorithm == "pta":
        return _COST_WEIGHTS["pta"] * (
            float(p.get("num_vars", 120)) * float(p.get("num_constraints", 200)))
    if spec.algorithm == "mst":
        return _COST_WEIGHTS["mst"] * float(
            p.get("num_edges", 4 * p.get("num_nodes", 300)))
    if spec.algorithm == "engine":
        n = float(p.get("num_nodes", 200))
        return _COST_WEIGHTS["engine"] * (n + float(p.get("num_edges", 3 * n)))
    return float("inf")
