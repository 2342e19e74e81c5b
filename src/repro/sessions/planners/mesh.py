"""Mesh-family session planners: staged DMR and cached insertion.

**DMR** gets real incrementality from the adapter's own structure: the
cold job applies every ``insert_points`` op to the *unrefined* mesh and
refines once at the end.  The session therefore keeps the staged
(inserted-but-unrefined) mesh as its resumable state; a new batch
replays only its *own* insert ops through the §9 GPU insertion driver —
prior batches' insertions are already in the staged mesh and are never
re-run — and then refines a copy.  The refine itself is a full pass
(cavity refinement cascades are global in the worst case), so the mode
is reported honestly as ``"delta"`` only for the staged insert phase,
with the dirty fraction measuring the new points against the staged
point population.

**Insertion** is conservative: :func:`repro.meshing.gpu_insert.\
gpu_insert_points` races all points speculatively against one RNG
schedule, so an edited point batch changes the whole trajectory.  The
planner maintains the point batch incrementally, serves unchanged
batches from cache, and recomputes fully otherwise.
"""

from __future__ import annotations

from ...dmr.refine import dmr_config, dmr_input, dmr_insert, dmr_refine
from ...meshing.gpu_insert import (insertion_mesh, insertion_points,
                                   insertion_solve)
from ...serve.mutations import apply_point_mutations
from . import BatchOutcome

__all__ = ["DmrPlanner", "InsertionPlanner"]


class DmrPlanner:
    """Session state + staged-insert recompute for ``algorithm="dmr"``."""

    algorithm = "dmr"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter) -> None:
        self.mesh, ops = dmr_input(self.params, self.seed)
        self._solve(ops, counter)

    def _solve(self, ops, counter) -> None:
        """Stage ``ops``' inserts, then refine a copy: the staged mesh
        must stay unrefined so the next batch's inserts land exactly
        where a cold run's would."""
        cfg = dmr_config(self.strategy, self.seed)
        self.mesh = dmr_insert(self.mesh, ops, cfg, counter)
        self.arrays, self.summary = dmr_refine(self.mesh.copy(), cfg,
                                               counter)

    def apply_batch(self, ops, counter, threshold: float) -> BatchOutcome:
        effective = [op for op in ops if int(op.get("count", 0)) > 0]
        if not effective:
            return BatchOutcome(mode="cached", dirty=0,
                                population=int(self.mesh.n_pts),
                                note="batch inserted no points")
        self._solve(effective, counter)
        return BatchOutcome(
            mode="delta", dirty=sum(int(op["count"]) for op in effective),
            population=int(self.mesh.n_pts),
            note="staged inserts replayed incrementally; refinement is a "
                 "full pass over the mutated mesh")


class InsertionPlanner:
    """Session state + cached recompute for ``algorithm="insertion"``."""

    algorithm = "insertion"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter) -> None:
        self.x, self.y = insertion_points(self.params, self.seed)
        self._solve_full(counter)

    def _solve_full(self, counter) -> None:
        self.arrays, self.summary = insertion_solve(
            insertion_mesh(self.params, self.seed), self.x, self.y,
            self.strategy, self.seed, counter)

    def apply_batch(self, ops, counter, threshold: float) -> BatchOutcome:
        dirty = 0
        for op in ops:
            before = self.x.size
            self.x, self.y = apply_point_mutations(self.x, self.y, [op])
            dirty += abs(self.x.size - before)
        population = max(int(self.x.size), 1)
        if dirty == 0:
            return BatchOutcome(mode="cached", dirty=0,
                                population=population,
                                note="batch left the point batch unchanged")
        self._solve_full(counter)
        return BatchOutcome(
            mode="full", dirty=dirty, population=population,
            note="speculative insertion races all points against one RNG "
                 "schedule; only a full replay reproduces the cold result")
