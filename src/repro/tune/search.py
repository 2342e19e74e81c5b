"""Seed-driven search over a :class:`~repro.tune.space.ConfigSpace`.

Every engine scores candidates the same way: run the algorithm's real
``serve_job`` adapter on a (possibly downscaled) proxy input with a
fresh :class:`~repro.core.counters.OpCounter`, then price the counter
with the shared :class:`~repro.vgpu.costmodel.CostModel` — so the
ranking criterion is exactly the modeled GPU time the benchmarks
report, not a separate heuristic that could drift from it.

Three engines, all deterministic for a given seed:

* ``exhaustive`` — every legal config, for small spaces;
* ``halving`` — successive halving in the OpenTuner/Hyperband spirit:
  a seeded sample of candidates is scored on a small proxy input, the
  better half survives to a larger proxy, until the final rung runs the
  survivors on the full tuning input;
* ``coordinate`` — greedy coordinate descent from the paper default:
  sweep one axis at a time, keep strictly-better moves, stop when a
  full sweep finds nothing (or the budget runs out).

Whatever the engine, :func:`tune` finishes with a *confirmation* step:
the paper-default config is always scored on the final input and the
returned winner is the better of (search winner, default).  That makes
"tuned is never worse than the paper default" a structural guarantee
rather than a hope, even when an aggressive early rung eliminates the
default on a proxy input that mispredicts the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..core.counters import OpCounter
from ..vgpu.costmodel import CostModel
from ..vgpu.instrument import FAULTS, RESILIENCE, TRACER
from .cache import TuneRecord, TuningCache, fingerprint_params
from .space import ConfigSpace, config_key, space_for

__all__ = ["Trial", "TuneResult", "score_config", "proxy_params", "tune",
           "ENGINES"]

#: smallest value a size parameter is scaled down to (inputs below this
#: stop exercising the strategy axes at all); a smaller one keeps its own
_MIN_SIZE = 40


@dataclass(frozen=True)
class Trial:
    """One scored candidate: a config, the proxy scale, and its price."""

    config: dict
    scale: float
    modeled_gpu_s: float


@dataclass
class TuneResult:
    """Everything one :func:`tune` call produced."""

    algorithm: str
    fingerprint: str
    engine: str
    best: TuneRecord
    trials: list[Trial] = field(default_factory=list)
    cache_hit: bool = False

    def ranked(self) -> list[Trial]:
        """Final-scale trials, best first (deterministic tiebreak)."""
        full = [t for t in self.trials if t.scale == 1.0]
        return sorted(full, key=lambda t: (t.modeled_gpu_s,
                                           config_key(t.config)))

    def table(self) -> str:
        """Fixed-width ranked summary of the final-scale trials."""
        rows = [("rank", "modeled GPU", "config")]
        for i, t in enumerate(self.ranked(), start=1):
            rows.append((str(i), f"{1e3 * t.modeled_gpu_s:.3f}ms",
                         config_key(t.config)))
        widths = [max(len(r[i]) for r in rows) for i in range(2)]
        lines = ["  ".join((r[0].ljust(widths[0]), r[1].rjust(widths[1]),
                            r[2])) for r in rows]
        lines.insert(1, "  ".join(("-" * widths[0], "-" * widths[1],
                                   "-" * 6)))
        return "\n".join(lines)


def proxy_params(algorithm: str, params: Mapping, scale: float) -> dict:
    """Shrink ``params``' input-size knobs by ``scale`` (0 < scale <= 1);
    absent ones start from the defaults the adapter's input builder reads."""
    from ..dmr.refine import dmr_sizes
    from ..meshing.gpu_insert import insertion_sizes
    from ..mst.boruvka_gpu import mst_sizes
    from ..pta.andersen import pta_sizes
    from ..satsp.sp import sp_sizes
    from ..serve.jobs import engine_sizes

    sizes = {"dmr": dmr_sizes, "insertion": insertion_sizes, "sp": sp_sizes,
             "pta": pta_sizes, "mst": mst_sizes,
             "engine": engine_sizes}.get(algorithm)
    out = dict(params)
    for key, value in (sizes(params) if sizes else {}).items():
        out[key] = max(min(value, _MIN_SIZE), int(value * scale))
    return out


def score_config(algorithm: str, params: Mapping, config: Mapping,
                 seed: int, scale: float = 1.0, *, tracer=None) -> Trial:
    """Run the real driver on the scaled input; price it; one Trial."""
    from ..serve.jobs import JobContext, get_adapter

    space = space_for(algorithm)
    cfg = space.canonical(config)
    ctx = JobContext(counter=OpCounter())
    if tracer is not None:
        # The trial runs under the tracer, which prices its counter as
        # it goes: the span's duration is the trial's modeled GPU time.
        tracer.on_span_begin("tune.trial", cat="tune", algorithm=algorithm,
                             scale=scale, config=config_key(cfg))
    # A trial runs with no fault injector and no resilience: a job's
    # fault plan counts the job's own events, its event log is the job's
    # own, and a trial that absorbed a fault could write a degraded
    # winner into the shared cache.
    with TRACER.maybe_activate(tracer), FAULTS.activate(None), \
            RESILIENCE.activate(None):
        get_adapter(algorithm)(proxy_params(algorithm, params, scale), cfg,
                               seed, ctx)
    modeled = CostModel().gpu_time(ctx.counter)
    if tracer is not None:
        tracer.on_span_end(modeled_gpu_s=modeled)
    return Trial(config=cfg, scale=scale, modeled_gpu_s=modeled)


Scorer = Callable[[Mapping, float], Trial]


def _rank_key(trial: Trial):
    return (trial.modeled_gpu_s, config_key(trial.config))


# ------------------------------------------------------------------ #
# Engines                                                            #
# ------------------------------------------------------------------ #

def _exhaustive(space: ConfigSpace, scorer: Scorer, budget: int,
                seed: int) -> list[Trial]:
    configs = list(space.configs())
    if budget and len(configs) > budget:
        # Deterministic truncation that always keeps the default.
        rng = np.random.default_rng(seed)
        idx = sorted(int(i) for i in
                     rng.choice(len(configs), size=budget, replace=False))
        configs = [configs[i] for i in idx]
        configs = _with_default(space, configs, budget)
    return [scorer(c, 1.0) for c in configs]


def _halving(space: ConfigSpace, scorer: Scorer, budget: int,
             seed: int, scales: tuple = (0.25, 0.5, 1.0)) -> list[Trial]:
    configs = list(space.configs())
    n0 = min(max(2, budget), len(configs))
    rng = np.random.default_rng(seed)
    idx = sorted(int(i) for i in
                 rng.choice(len(configs), size=n0, replace=False))
    candidates = _with_default(space, [configs[i] for i in idx], n0)
    trials: list[Trial] = []
    for rung, scale in enumerate(scales):
        scored = [scorer(c, scale) for c in candidates]
        trials += scored
        if rung == len(scales) - 1:
            break
        scored.sort(key=_rank_key)
        candidates = [t.config for t in scored[:max(1, len(scored) // 2)]]
    return trials


def _coordinate(space: ConfigSpace, scorer: Scorer, budget: int,
                seed: int) -> list[Trial]:
    current = space.canonical(space.default)
    best = scorer(current, 1.0)
    trials = [best]
    improved = True
    while improved and len(trials) < budget:
        improved = False
        for ax in space.axes:
            for choice in ax.choices:
                candidate = {**current, ax.name: choice}
                if config_key(candidate) == config_key(current) or \
                        not space.is_legal(candidate):
                    continue
                if len(trials) >= budget:
                    return trials
                t = scorer(candidate, 1.0)
                trials.append(t)
                if t.modeled_gpu_s < best.modeled_gpu_s:
                    best, current, improved = t, dict(t.config), True
    return trials


def _with_default(space: ConfigSpace, configs: list[dict],
                  limit: int) -> list[dict]:
    """Ensure the paper default is among ``configs`` (within ``limit``)."""
    default = space.canonical(space.default)
    keys = {config_key(c) for c in configs}
    if config_key(default) in keys:
        return configs
    out = [default] + configs
    return out[:limit] if limit else out


ENGINES = {"exhaustive": _exhaustive, "halving": _halving,
           "coordinate": _coordinate}


# ------------------------------------------------------------------ #
# The front door                                                      #
# ------------------------------------------------------------------ #

def tune(algorithm: str, params: Mapping | None = None, *,
         budget: int = 16, seed: int = 0, engine: str = "auto",
         cache: TuningCache | None = None, force: bool = False,
         tracer=None) -> TuneResult:
    """Search ``algorithm``'s strategy space for its cheapest config.

    ``budget`` bounds the number of *candidate configs* an engine
    considers (halving re-scores survivors on larger proxies, so total
    driver runs can be up to ~2x the budget).  ``engine="auto"`` picks
    exhaustive when the legal space fits the budget and successive
    halving otherwise.  With a ``cache``, a prior tuning of the same
    ``(algorithm, fingerprint, cost-model version)`` is returned
    immediately (``cache_hit=True``) unless ``force`` is set, and a
    fresh tuning is persisted on the way out.
    """
    space = space_for(algorithm)
    params = dict(params or {})
    fingerprint = fingerprint_params(algorithm, params)

    if cache is not None and not force:
        hit = cache.get(algorithm, fingerprint)
        if hit is not None:
            return TuneResult(algorithm=algorithm, fingerprint=fingerprint,
                              engine=hit.engine, best=hit, cache_hit=True)

    if engine == "auto":
        engine = "exhaustive" if space.size() <= budget else "halving"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: "
                         f"{', '.join(sorted(ENGINES))} (or 'auto')")

    def scorer(config, scale):
        return score_config(algorithm, params, config, seed, scale,
                            tracer=tracer)

    trials = ENGINES[engine](space, scorer, budget, seed)

    # Confirmation: the default must be priced on the final input, and
    # the winner is min over final-scale trials including it.
    default = space.canonical(space.default)
    full = [t for t in trials if t.scale == 1.0]
    if not any(config_key(t.config) == config_key(default) for t in full):
        t = scorer(default, 1.0)
        trials.append(t)
        full.append(t)
    best_trial = min(full, key=_rank_key)

    record = TuneRecord(algorithm=algorithm, fingerprint=fingerprint,
                        config=best_trial.config,
                        modeled_gpu_s=best_trial.modeled_gpu_s,
                        engine=engine, budget=budget, seed=seed,
                        trials=len(trials))
    if cache is not None:
        cache.put(record)
    return TuneResult(algorithm=algorithm, fingerprint=fingerprint,
                      engine=engine, best=record, trials=trials)
