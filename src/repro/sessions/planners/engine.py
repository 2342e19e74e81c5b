"""Session planner for the generic engine's speculative recoloring.

Speculative recoloring is the engine's checkpoint-bearing reference
workload, and its result is trajectory-shaped: round membership,
speculation order, and conflict-loser retries all flow from one RNG
stream over the whole graph, so a one-edge change can lawfully recolor
distant nodes.  The planner keeps the edge list incrementally (via
:func:`repro.serve.mutations.apply_graph_mutations_tracked`), measures
the dirty region as the nodes incident to changed edges, serves
unchanged batches from cache, and otherwise recomputes fully through
the cold adapter's own :func:`repro.serve.jobs.engine_solve`.
"""

from __future__ import annotations

import numpy as np

from ...serve.jobs import JobContext, engine_input, engine_solve
from ...serve.mutations import apply_graph_mutations_tracked
from . import BatchOutcome

__all__ = ["EnginePlanner"]


class EnginePlanner:
    """Session state + conservative recompute for ``algorithm="engine"``."""

    algorithm = "engine"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter, resilience=None) -> None:
        self.n, self.lo, self.hi, self.w = engine_input(self.params,
                                                        self.seed)
        self._solve_full(counter, resilience)

    def _solve_full(self, counter, resilience) -> None:
        self.arrays, self.summary = engine_solve(
            self.n, self.lo, self.hi, self.w, self.params, self.strategy,
            self.seed, JobContext(counter=counter, resilience=resilience))

    def apply_batch(self, ops, counter, threshold: float,
                    resilience=None) -> BatchOutcome:
        old_lo, old_hi, old_edges = self.lo, self.hi, self.lo.size
        self.lo, self.hi, self.w, eff = apply_graph_mutations_tracked(
            self.n, old_lo, old_hi, self.w, ops)

        identity = (self.lo.size == old_edges and not eff.changed.any()
                    and bool((eff.index_map
                              == np.arange(old_edges)).all()))
        if identity:
            return BatchOutcome(mode="cached", dirty=0, population=self.n,
                                note="batch left the edge list unchanged")

        dropped = eff.index_map < 0
        changed = np.flatnonzero(eff.changed)
        dirty_nodes = np.unique(np.concatenate([
            self.lo[changed], self.hi[changed],
            old_lo[dropped], old_hi[dropped]]))
        self._solve_full(counter, resilience)
        return BatchOutcome(
            mode="full", dirty=int(dirty_nodes.size), population=self.n,
            note="speculative recoloring follows one global RNG "
                 "trajectory; only a full rerun reproduces the cold result")
