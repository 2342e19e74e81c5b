"""GPU-style concurrent Delaunay point insertion.

The paper closes hoping its techniques "prove useful for other GPU
implementations of general morph algorithms"; Delaunay *construction*
(Qi et al. [27] territory) is the natural fifth workload: many threads
insert points into one triangulation concurrently.  Each round:

1. every pending point walks to its containing triangle and carves its
   Delaunay cavity (exact predicates — insertion is a correctness-
   critical structural change);
2. the cavity-plus-ring claim goes through the same 3-phase marking as
   DMR (:func:`repro.core.conflict.three_phase_mark`);
3. winners retriangulate through the shared mutation core; losers retry
   next round.  The round then scores all its new triangles' quality
   flags in one :meth:`~repro.meshing.mesh.TriMesh.recompute_quality`
   pass.

This exercises the morph toolkit end-to-end on a second real algorithm
and doubles as a parallel mesh builder: the result equals an
incremental Bowyer-Watson triangulation of the same points (tested
against scipy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.conflict import three_phase_mark
from ..core.counters import OpCounter
from ..core.ragged import Ragged
from ..errors import CavityError, MaxRoundsExceeded
from ..resilience.addition import grow_array
from ..resilience.deletion import ResilientRecyclePool
from ..resilience.policy import launch_ok
from ..vgpu.instrument import SANITIZER, TRACER, trace_span
from ..vgpu.memory import RecyclePool
from .cavity import delaunay_cavity, locate, retriangulate
from .mesh import TriMesh

__all__ = ["InsertResult", "gpu_insert_points", "insertion_mesh",
           "insertion_points", "insertion_sizes", "insertion_solve",
           "serve_job"]


@dataclass
class InsertResult:
    mesh: TriMesh
    counter: OpCounter
    rounds: int
    inserted: int
    duplicates_skipped: int
    aborted_conflicts: int
    parallelism: list = field(default_factory=list)

    @property
    def abort_ratio(self) -> float:
        total = self.inserted + self.aborted_conflicts
        return self.aborted_conflicts / total if total else 0.0


def gpu_insert_points(mesh: TriMesh, x: np.ndarray, y: np.ndarray, *,
                      seed: int = 0, max_points_per_round: int = 4096,
                      counter: OpCounter | None = None,
                      max_rounds: int = 100_000,
                      sanitizer=None, tracer=None,
                      resilience=None) -> InsertResult:
    """Insert all points into ``mesh`` (mutated in place) concurrently.

    Points outside the mesh are rejected with ``ValueError``; exact
    duplicates of existing vertices are skipped and counted.
    ``sanitizer`` (opt-in) activates a :mod:`repro.analysis` detector
    for the duration of the insertion rounds; ``tracer`` (opt-in)
    records the rounds as a :mod:`repro.obs` span hierarchy.
    ``resilience`` (opt-in, a :class:`repro.resilience.Resilience`)
    absorbs transient round-boundary kernel aborts, degrades refused
    over-allocating growth to exact fit, and falls back from Recycling
    to Marking deletion on pool exhaustion; without it, injected device
    faults propagate typed.
    """
    with SANITIZER.maybe_activate(sanitizer):
        with TRACER.maybe_activate(tracer):
            with trace_span("meshing.gpu_insert_points", cat="driver"):
                return _insert_impl(
                    mesh, x, y, seed=seed,
                    max_points_per_round=max_points_per_round,
                    counter=counter, max_rounds=max_rounds,
                    resil=resilience)


def _insert_impl(mesh: TriMesh, x: np.ndarray, y: np.ndarray, *,
                 seed: int, max_points_per_round: int,
                 counter: OpCounter | None,
                 max_rounds: int, resil=None) -> InsertResult:
    rng = np.random.default_rng(seed)
    ctr = counter or OpCounter()
    pool = (ResilientRecyclePool(RecyclePool(), resilience=resil)
            if resil is not None else RecyclePool())
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pending = list(range(x.size))
    inserted = dups = aborted = rounds = 0
    parallelism: list[int] = []
    start_hint = int(mesh.live_slots()[0]) if mesh.num_triangles else 0

    while pending and rounds < max_rounds:
        if not launch_ok(resil, "insertion.round"):
            continue    # absorbed transient abort: re-issue the round
        rounds += 1
        tr = TRACER.current
        if tr is not None:
            tr.on_span_begin("insert.iteration", cat="iteration",
                             round=rounds)
            tr.on_gauge("insert.pending", len(pending))
        # Batch size tracks the mesh: a cavity-plus-ring claim spans
        # ~14 triangles, so attempting more than ~1 insertion per 32
        # live triangles saturates the claimable area and manufactures
        # conflicts (Qi et al. insert in size-matched rounds for the
        # same reason).  The mesh grows as points land, so batches ramp
        # up geometrically.
        room = max(1, mesh.num_triangles // 32)
        batch = pending[:min(max_points_per_round, room)]
        plans = []  # (point index, cavity, claims)
        reads = 0
        work = []
        for i in batch:
            loc = locate(mesh, start_hint, float(x[i]), float(y[i]), rng=rng)
            if loc.kind != "tri":
                raise ValueError(f"point {i} lies outside the mesh")
            if any(mesh.px[v] == x[i] and mesh.py[v] == y[i]
                   for v in mesh.tri[loc.slot]):
                dups += 1
                pending.remove(i)
                plans.append(None)
                work.append(loc.steps)
                continue
            cav = delaunay_cavity(mesh, loc.slot, float(x[i]), float(y[i]))
            ring = []
            inside = set(cav)
            for t in cav:
                for k in range(3):
                    u = int(mesh.nbr[t, k])
                    if u >= 0 and u not in inside:
                        ring.append(u)
            plans.append((i, cav, cav + list(dict.fromkeys(ring))))
            reads += 12 * loc.steps + 15 * len(cav)
            work.append(loc.steps + 3 * len(cav))

        ok = [p for p in plans if p is not None]
        claims = Ragged.from_lists([p[2] for p in ok])
        # One kernel scope per round so the marking round's ownership
        # grants cover the winners' retriangulation stores.
        san = SANITIZER.current
        if san is not None:
            san.on_kernel_begin("insert.round", round=rounds)
        res = three_phase_mark(mesh.tri.shape[0], claims, rng,
                               priorities=rng.permutation(len(ok)),
                               ensure_progress=True)
        wins = 0
        writes = 0
        new_slots: list[int] = []
        for j in np.flatnonzero(res.winners):
            i, cav, _ = ok[int(j)]
            slots, new_tail = pool.allocate(len(cav) + 4, mesh.n_tris)
            if new_tail > mesh.tri.shape[0]:
                grow_array(resil, mesh.ensure_tri_capacity,
                           preferred=int(new_tail * 1.5) + 8,
                           exact=int(new_tail))
            mesh.n_tris = max(mesh.n_tris, new_tail)
            try:
                info = retriangulate(mesh, cav, float(x[i]), float(y[i]),
                                     slots)
            except CavityError:
                aborted += 1
                pool.release(slots)
                continue
            new_slots += info.new_slots
            used = set(info.new_slots)
            spare = [s for s in slots.tolist() if s not in used]
            if spare:
                mesh.isdel[np.asarray(spare, dtype=np.int64)] = True
                pool.release(np.asarray(spare, dtype=np.int64))
            pool.release(np.asarray(cav, dtype=np.int64))
            pending.remove(i)
            inserted += 1
            wins += 1
            writes += 12 * info.new_size
            start_hint = info.new_slots[0]
        mesh.recompute_quality(new_slots)
        if san is not None:
            san.on_kernel_end("insert.round")
        aborted += res.num_aborted
        parallelism.append(wins)
        ctr.launch("insert.round", items=len(ok), aborted=res.num_aborted,
                   word_reads=reads, word_writes=writes + claims.total(),
                   barriers=res.barriers + 1,
                   work_per_thread=np.asarray(work, dtype=np.int64)
                   if work else None)
        if tr is not None:
            tr.on_gauge("insert.applied", wins)
            tr.on_span_end()
    if pending:
        raise MaxRoundsExceeded(
            "insertion did not finish within max_rounds", rounds=rounds)
    return InsertResult(mesh=mesh, counter=ctr, rounds=rounds,
                        inserted=inserted, duplicates_skipped=dups,
                        aborted_conflicts=aborted, parallelism=parallelism)


# ------------------------------------------------------------------ #
# repro.serve adapter                                                #
# ------------------------------------------------------------------ #

def insertion_sizes(params) -> dict:
    """``n_triangles`` (default 300) and ``n_points`` (default 12), as
    :func:`insertion_mesh` and :func:`insertion_points` read them."""
    return {"n_triangles": int(params.get("n_triangles", 300)),
            "n_points": int(params.get("n_points", 12))}


def insertion_mesh(params, seed: int) -> TriMesh:
    """The job's base mesh: :func:`insertion_sizes` triangles from
    ``seed``.  Insertion mutates it, so every solve builds a fresh one."""
    from .generate import random_mesh

    return random_mesh(insertion_sizes(params)["n_triangles"], seed=seed)


def insertion_points(params, seed: int):
    """The job's point batch ``(x, y)``: uniform in the interior box
    ``[0.3, 0.7]^2`` from ``seed + 1``, then ``params["mutations"]``."""
    from ..serve.mutations import apply_point_mutations, check_mutations

    mutations = check_mutations("insertion", params.get("mutations", ()))
    rng = np.random.default_rng(seed + 1)
    n_points = insertion_sizes(params)["n_points"]
    x = rng.uniform(0.3, 0.7, n_points)
    y = rng.uniform(0.3, 0.7, n_points)
    if mutations:
        x, y = apply_point_mutations(x, y, mutations)
    return x, y


def insertion_solve(mesh: TriMesh, x, y, strategy, seed: int, counter,
                    resilience=None):
    """Insert ``(x, y)`` into ``mesh`` with the strategy's
    ``max_points_per_round``; returns the job's ``(arrays, summary)``."""
    res = gpu_insert_points(
        mesh, x, y, seed=seed, counter=counter,
        max_points_per_round=int(strategy.get("max_points_per_round", 4096)),
        resilience=resilience)
    out = res.mesh
    arrays = (out.tri[: out.n_tris], out.px[: out.n_pts],
              out.py[: out.n_pts], out.isdel[: out.n_tris])
    summary = {"rounds": res.rounds, "inserted": res.inserted,
               "duplicates_skipped": res.duplicates_skipped,
               "aborted_conflicts": res.aborted_conflicts,
               "triangles": int(out.num_triangles)}
    return arrays, summary


def serve_job(params, strategy, seed, ctx):
    """Job adapter for :mod:`repro.serve` (``algorithm="insertion"``).

    Builds a ``params["n_triangles"]``-triangle mesh and inserts
    ``params["n_points"]`` points drawn uniformly from the interior box
    ``[0.3, 0.7]^2`` (meshes from :func:`~repro.meshing.generate.\
random_mesh` cover the unit square, so the box stays inside the hull).
    ``strategy`` understands ``max_points_per_round``;
    ``strategy="auto"`` substitutes the :mod:`repro.tune`
    cached/tuned configuration, and unknown keys raise ``ValueError``.
    ``params["mutations"]`` may carry an ``add_points``/``drop_points``
    stream (:mod:`repro.serve.mutations`) edit-listing the insertion
    batch before it runs.

    Composes :func:`insertion_mesh`, :func:`insertion_points` and
    :func:`insertion_solve`, as the session planner does.
    """
    from ..tune import resolve_strategy

    strategy = resolve_strategy("insertion", params, strategy)
    mesh = insertion_mesh(params, seed)
    x, y = insertion_points(params, seed)
    return insertion_solve(mesh, x, y, strategy, seed, ctx.counter,
                           getattr(ctx, "resilience", None))
