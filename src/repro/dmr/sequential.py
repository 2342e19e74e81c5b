"""Sequential Delaunay mesh refinement (the Triangle-program role).

A classic worklist refinement loop: keep fixing bad triangles until
none remain.  This is the reproduction's stand-in for Shewchuk's
Triangle [28] — same algorithm family (Chew/Ruppert-style circumcenter
insertion with segment splitting on encroachment), same quality
constraint, running on one thread.  Its operation counts feed the
serial column of Figs. 6/7.

Execution note: a serial processor fixes one triangle at a time, but
*simulating* it one scalar plan at a time is needlessly slow in Python.
The loop therefore plans candidates in vectorized batches
(:func:`repro.dmr.refine._plan_batch`) and applies them in batch order,
skipping any plan invalidated by an earlier application in the same
batch (it is re-planned later).  This is exactly a serial execution in
a particular processing order — the paper notes any order yields a
valid mesh — and only the work of *applied* operations is counted, as
a serial program never wastes speculative work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import OpCounter
from ..errors import CavityError
from ..meshing.mesh import TriMesh
from .plan import apply_plan, plan_refinement

__all__ = ["refine_sequential", "SequentialResult"]

_BATCH = 256


@dataclass
class SequentialResult:
    mesh: TriMesh
    counter: OpCounter
    processed: int
    skipped: int
    points_added: int
    rounds: int = 1
    guards_bound: bool = False  # True if safety caps cut refinement short

    @property
    def converged(self) -> bool:
        return self.mesh.bad_slots().size == 0


def refine_sequential(mesh: TriMesh, *, seed: int = 0,
                      max_points: int | None = None,
                      counter: OpCounter | None = None) -> SequentialResult:
    """Refine ``mesh`` in place until no bad triangles remain.

    ``max_points`` caps insertions (safety guard; ``guards_bound`` in the
    result reports whether it fired).  Work accounting per applied
    triangle fix: the walk, the cavity test ring and the fan rewrite,
    with word traffic proportional to triangles touched.
    """
    from .refine import _plan_batch  # deferred: refine imports plan too

    rng = np.random.default_rng(seed)
    ctr = counter or OpCounter()
    free: list[int] = []
    processed = skipped = added = 0
    guards = False
    stale_skips = 0

    def take_slots(need: int) -> np.ndarray:
        nonlocal free
        while len(free) < need:
            if mesh.n_tris >= mesh.tri.shape[0]:
                mesh.ensure_tri_capacity(int(mesh.tri.shape[0] * 1.5) + 8)
            free.append(mesh.n_tris)
            mesh.n_tris += 1
        return np.asarray(free[:need], dtype=np.int64)

    while True:
        bad = mesh.bad_slots()
        if bad.size == 0:
            break
        if max_points is not None and added >= max_points:
            guards = True
            break
        batch = bad[:_BATCH]
        plans, _ = _plan_batch(mesh, batch, np.float64, rng)
        dirty: set[int] = set()
        applied_any = False
        for p in plans:
            if max_points is not None and added >= max_points:
                guards = True
                break
            if not p.ok:
                # Batch planning failed (rare device-arithmetic corner);
                # retry exactly before giving up on this triangle.
                p = plan_refinement(mesh, p.slot, rng=rng)
                if not p.ok:
                    if p.reason != "deleted":
                        skipped += 1
                        ctr.bump("skipped." + p.reason)
                        mesh.isbad[p.slot] = False  # unrefinable; drop
                    continue
            if mesh.isdel[p.slot] or not mesh.isbad[p.slot]:
                continue
            if any(t in dirty for t in p.claims):
                stale_skips += 1  # replanned in a later batch, not counted
                continue
            slots = take_slots(len(p.cavity) + 4)
            try:
                info = apply_plan(mesh, p, slots)
            except CavityError:
                stale_skips += 1
                continue
            mesh.recompute_quality(info.new_slots)
            used = set(info.new_slots)
            free[:] = [s for s in free if s not in used] + list(p.cavity)
            dirty.update(p.claims)
            dirty.update(info.new_slots)
            touched = len(p.cavity) + len(p.ring)
            ctr.launch("seq.refine", items=1,
                       word_reads=12 * p.walk_steps + 15 * touched,
                       word_writes=12 * info.new_size,
                       work_per_thread=np.asarray(
                           [p.walk_steps + 3 * touched + 4 * info.new_size]))
            processed += 1
            added += 1
            applied_any = True
        if not applied_any:
            # Whole batch stale/unusable (rare): force guaranteed progress
            # through one exact scalar fix so the loop cannot spin.
            p = plan_refinement(mesh, int(bad[0]), rng=rng)
            if p.ok:
                slots = take_slots(len(p.cavity) + 4)
                info = apply_plan(mesh, p, slots)
                mesh.recompute_quality(info.new_slots)
                used = set(info.new_slots)
                free[:] = [s for s in free if s not in used] + list(p.cavity)
                processed += 1
                added += 1
            else:
                skipped += 1
                ctr.bump("skipped." + p.reason)
                mesh.isbad[bad[0]] = False  # unrefinable; drop from worklist
    ctr.bump("stale_replans", stale_skips)
    return SequentialResult(mesh=mesh, counter=ctr, processed=processed,
                            skipped=skipped, points_added=added,
                            guards_bound=guards)
