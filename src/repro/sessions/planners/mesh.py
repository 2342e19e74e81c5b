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

import numpy as np

from ...serve.mutations import (apply_point_mutations, check_mutations,
                                mutation_points)
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

    def _config(self):
        from ...core.adaptive import adaptive_from_dict
        from ...dmr.refine import DMRConfig
        from ...vgpu.sync import FENCE, HIERARCHICAL, NAIVE_ATOMIC

        barriers = {"fence": FENCE, "hierarchical": HIERARCHICAL,
                    "naive": NAIVE_ATOMIC}
        kwargs = {k: self.strategy[k] for k in
                  ("conflict", "layout_opt", "local_worklists", "sort_work",
                   "precision", "growth_factor", "priority", "min_chunk")
                  if k in self.strategy}
        if "barrier" in self.strategy:
            kwargs["barrier"] = barriers[self.strategy["barrier"]]
        if "adaptive" in self.strategy:
            kwargs["adaptive"] = adaptive_from_dict(self.strategy["adaptive"])
        return DMRConfig(seed=self.seed, **kwargs)

    def open(self, counter, resilience=None) -> None:
        from ...meshing.generate import random_mesh

        mesh = random_mesh(int(self.params.get("n_triangles", 600)),
                           seed=self.seed)
        mutations = check_mutations("dmr",
                                    self.params.get("mutations", ()))
        self.mesh = mesh      # staged: inserted, never refined
        self._insert(mutations, counter, resilience)
        self._refine(counter, resilience)

    def _insert(self, ops, counter, resilience) -> int:
        from ...meshing.gpu_insert import gpu_insert_points

        # The refine that follows prices the whole counter under its
        # configuration; record it before the inserts' first launch.
        self._config().record_cost_config(counter)
        inserted = 0
        for op in ops:
            mx, my = mutation_points(op)
            ins = gpu_insert_points(self.mesh, mx, my,
                                    seed=int(op.get("seed", 0)),
                                    counter=counter,
                                    resilience=resilience)
            self.mesh = ins.mesh
            inserted += int(mx.size)
        return inserted

    def _refine(self, counter, resilience) -> None:
        from ...dmr.refine import refine_gpu

        # Refine a copy: the staged mesh must stay unrefined so the
        # next batch's inserts land exactly where a cold run's would.
        res = refine_gpu(self.mesh.copy(), self._config(),
                         counter=counter, resilience=resilience)
        out = res.mesh
        self.arrays = (out.tri[: out.n_tris], out.px[: out.n_pts],
                       out.py[: out.n_pts], out.isdel[: out.n_tris])
        self.summary = {"rounds": res.rounds, "processed": res.processed,
                        "points_added": res.points_added,
                        "aborted_conflicts": res.aborted_conflicts,
                        "aborted_geometry": res.aborted_geometry,
                        "converged": res.converged,
                        "triangles": int(out.num_triangles)}

    def apply_batch(self, ops, counter, threshold: float,
                    resilience=None) -> BatchOutcome:
        effective = [op for op in ops if int(op.get("count", 0)) > 0]
        if not effective:
            return BatchOutcome(mode="cached", dirty=0,
                                population=int(self.mesh.n_pts),
                                note="batch inserted no points")
        inserted = self._insert(effective, counter, resilience)
        self._refine(counter, resilience)
        return BatchOutcome(
            mode="delta", dirty=inserted, population=int(self.mesh.n_pts),
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

    def open(self, counter, resilience=None) -> None:
        rng = np.random.default_rng(self.seed + 1)
        n_points = int(self.params.get("n_points", 12))
        self.x = rng.uniform(0.3, 0.7, n_points)
        self.y = rng.uniform(0.3, 0.7, n_points)
        mutations = check_mutations("insertion",
                                    self.params.get("mutations", ()))
        if mutations:
            self.x, self.y = apply_point_mutations(self.x, self.y,
                                                   mutations)
        self._solve_full(counter, resilience)

    def _solve_full(self, counter, resilience) -> None:
        from ...meshing.generate import random_mesh
        from ...meshing.gpu_insert import gpu_insert_points

        # The base mesh is regenerated per solve (inserts mutate it),
        # exactly as the cold adapter does.
        mesh = random_mesh(int(self.params.get("n_triangles", 300)),
                           seed=self.seed)
        res = gpu_insert_points(
            mesh, self.x, self.y, seed=self.seed, counter=counter,
            max_points_per_round=int(
                self.strategy.get("max_points_per_round", 4096)),
            resilience=resilience)
        out = res.mesh
        self.arrays = (out.tri[: out.n_tris], out.px[: out.n_pts],
                       out.py[: out.n_pts], out.isdel[: out.n_tris])
        self.summary = {"rounds": res.rounds, "inserted": res.inserted,
                        "duplicates_skipped": res.duplicates_skipped,
                        "aborted_conflicts": res.aborted_conflicts,
                        "triangles": int(out.num_triangles)}

    def apply_batch(self, ops, counter, threshold: float,
                    resilience=None) -> BatchOutcome:
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
        self._solve_full(counter, resilience)
        return BatchOutcome(
            mode="full", dirty=dirty, population=population,
            note="speculative insertion races all points against one RNG "
                 "schedule; only a full replay reproduces the cold result")
