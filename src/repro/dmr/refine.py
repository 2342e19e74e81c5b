"""GPU-style Delaunay Mesh Refinement (Sections 2, 6.2, 7, Fig. 3).

The host loop re-launches a refinement kernel until no bad triangles
remain (the paper's do-while in Fig. 3).  Each simulated kernel round:

1. a *topology-driven* scan finds bad, undeleted triangles (threads are
   assigned contiguous slot ranges — local worklists, Section 7.5 — and
   the adaptive launch configuration bounds how many are attempted,
   Section 7.4);
2. a vectorized *planning* pass runs in device arithmetic (float64, or
   float32 for the Fig. 8 single-precision row): circumcenters, the
   point-location walk, level-synchronous cavity expansion, Ruppert
   encroachment handling;
3. each thread *marks* its cavity-plus-ring claim and the 3-phase
   race/prioritycheck/check procedure resolves conflicts (Section 7.3);
4. winners retriangulate their cavities through the exact shared core
   (:func:`repro.dmr.plan.apply_plan`) — a geometric inconsistency from
   device-precision planning is treated as an abort; losers back off
   and retry in a later round.  Nothing reads the bad flags between
   winners, so the wave sets them for all its new triangles in one
   vectorized :meth:`~repro.meshing.mesh.TriMesh.recompute_quality`
   pass (the per-triangle bad flag of Section 6.2);
5. deleted triangle slots are recycled (Section 7.2, Recycle) and the
   triangle arrays grow host-side with an over-allocation factor
   (Section 7.1, Host-Only).

Every round records items, aborts, memory words (weighted by slot
locality so the Section 6.1 layout optimization is visible in the
model), atomics, barriers and per-warp divergence, enabling the Fig. 8
optimization-breakdown reproduction via :class:`DMRConfig` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.adaptive import AdaptiveConfig, adaptive_from_dict
from ..core.conflict import three_phase_mark, two_phase_mark
from ..core.counters import OpCounter
from ..core.layout import bfs_permutation
from ..core.ragged import Ragged
from ..errors import CavityError
from ..meshing import geometry as geo
from ..meshing.mesh import TriMesh
from ..resilience.addition import grow_array
from ..resilience.deletion import ResilientRecyclePool
from ..resilience.policy import launch_ok
from ..vgpu.instrument import SANITIZER, TRACER, fault_transfer, trace_span
from ..vgpu.memory import RecyclePool
from ..vgpu.sync import BARRIERS, FENCE, BarrierModel
from .plan import RefinePlan, apply_plan

__all__ = ["DMRConfig", "DMRResult", "dmr_config", "dmr_input", "dmr_insert",
           "dmr_refine", "dmr_sizes", "refine_gpu", "reorder_mesh",
           "serve_job"]

#: slot distance under which a neighbor access is modeled as cache-local
LOCAL_WINDOW = 2048
#: extra words charged for a far (cache-line-wasting) access
FAR_WORDS = 8
MAX_WALK = 128
MAX_CAVITY = 64


@dataclass
class DMRConfig:
    """Optimization switches matching the Fig. 8 breakdown."""

    conflict: str = "3phase"          # "locks" | "2phase-unsafe" | "3phase"
    barrier: BarrierModel = FENCE     # the paper's post-Fig.8 default
    layout_opt: bool = True           # Section 6.1 reordering
    adaptive: object = None           # AdaptiveConfig-like; None -> paper's
    sort_work: bool = True            # Section 7.6 divergence reduction
    precision: str = "float64"        # "float32" for Fig. 8 row 7
    growth_factor: float = 1.5        # 1.0 models on-demand allocation
    local_worklists: bool = True      # Section 7.5; False = central queue
    #: smallest per-thread chunk of the triangle array (the shared-memory
    #: local-worklist granularity); bounds concurrent attempts on small
    #: meshes the same way limited thread residency does at paper scale
    min_chunk: int = 64
    #: "random": priorities model the hardware's arbitrary block
    #: scheduling (thread ids are not spatially ordered across blocks);
    #: "threadid": priorities follow the chunk order — exposes the
    #: conflict-chain pathology where one spatial run of overlapping
    #: cavities aborts all but its highest-id member.
    priority: str = "random"
    seed: int = 0
    max_rounds: int = 10_000

    def __post_init__(self) -> None:
        if self.adaptive is None:
            self.adaptive = AdaptiveConfig(initial_tpb=64)
        if self.conflict not in ("locks", "2phase-unsafe", "3phase"):
            raise ValueError(f"unknown conflict scheme {self.conflict!r}")
        if self.precision not in ("float32", "float64"):
            raise ValueError("precision must be float32 or float64")

    def record_cost_config(self, counter: OpCounter) -> None:
        """Record the barrier scheme and precision on ``counter``.

        ``CostModel.gpu_time`` prices every barrier and lane-step of a
        counter with these scalars, so they are set before the counter's
        first launch — also when §9 insertions share the counter ahead
        of the refinement.
        """
        if self.precision == "float32":
            # Fermi FP32 issues at 2x the FP64 rate.
            counter.scalars["fp_scale"] = 0.5
        counter.scalars["barrier_kind"] = self.barrier.index


@dataclass
class DMRResult:
    mesh: TriMesh
    counter: OpCounter
    rounds: int
    processed: int
    aborted_conflicts: int
    aborted_geometry: int
    points_added: int
    parallelism: list = field(default_factory=list)  # winners per round
    guards_bound: bool = False

    @property
    def converged(self) -> bool:
        return self.mesh.bad_slots().size == 0

    @property
    def abort_ratio(self) -> float:
        total = self.processed + self.aborted_conflicts + self.aborted_geometry
        return (self.aborted_conflicts + self.aborted_geometry) / total \
            if total else 0.0


def reorder_mesh(mesh: TriMesh) -> TriMesh:
    """Apply the Section 6.1 layout optimization to the triangle slots."""
    live = mesh.live_slots()
    rows = [[] for _ in range(live.size)]
    pos = {int(s): i for i, s in enumerate(live)}
    for i, s in enumerate(live.tolist()):
        for k in range(3):
            u = int(mesh.nbr[s, k])
            if u >= 0:
                rows[i].append(pos[u])
    perm = bfs_permutation(Ragged.from_lists(rows))
    order = np.argsort(perm)          # new slot -> old live index
    return TriMesh(mesh.px[: mesh.n_pts].copy(), mesh.py[: mesh.n_pts].copy(),
                   mesh.tri[live[order]].copy(),
                   min_angle_deg=mesh.min_angle_deg)


# ------------------------------------------------------------------ #
# Vectorized planning (device arithmetic)                            #
# ------------------------------------------------------------------ #

def _locality_words(a: np.ndarray, b: np.ndarray) -> int:
    """Weighted word count for gathers from slots ``b`` issued at ``a``."""
    far = np.abs(np.asarray(a) - np.asarray(b)) > LOCAL_WINDOW
    return int(np.sum(np.where(far, FAR_WORDS, 1)))


def _plan_batch(mesh: TriMesh, slots: np.ndarray, dtype,
                rng: np.random.Generator) -> tuple[list[RefinePlan], dict]:
    """Device-arithmetic planning for a batch of bad triangles.

    Returns per-slot :class:`RefinePlan` objects (``ok=False`` carries
    the abort reason) plus a stats dict (reads, walk work) for the
    round's kernel record.
    """
    k = slots.size
    px = mesh.px.astype(dtype, copy=False)
    py = mesh.py.astype(dtype, copy=False)
    stats = {"reads": 0, "walk_steps": np.zeros(k, dtype=np.int64)}

    tri = mesh.tri[slots]
    ax, ay = px[tri[:, 0]], py[tri[:, 0]]
    bx, by = px[tri[:, 1]], py[tri[:, 1]]
    cx, cy = px[tri[:, 2]], py[tri[:, 2]]
    ux, uy = geo.circumcenter_many(ax, ay, bx, by, cx, cy)
    stats["reads"] += 9 * k

    state = np.zeros(k, dtype=np.int8)  # 0 walk, 1 inside, 2 hull, 3 abort
    bad_center = ~(np.isfinite(ux) & np.isfinite(uy))
    state[bad_center] = 3
    cur = slots.astype(np.int64).copy()
    hull_edge = np.full(k, -1, dtype=np.int64)
    tx = ux.astype(np.float64)
    ty = uy.astype(np.float64)

    for _ in range(MAX_WALK):
        walking = np.flatnonzero(state == 0)
        if walking.size == 0:
            break
        t = cur[walking]
        v = mesh.tri[t]
        o = np.empty((walking.size, 3))
        for e in range(3):
            a = v[:, e]
            b = v[:, (e + 1) % 3]
            o[:, e] = geo.orient2d_many(px[a], py[a], px[b], py[b],
                                        tx[walking], ty[walking])
        stats["reads"] += _locality_words(t, t) + 6 * walking.size
        stats["walk_steps"][walking] += 1
        inside = np.all(o >= 0, axis=1)
        state[walking[inside]] = 1
        move = walking[~inside]
        if move.size == 0:
            continue
        om = o[~inside]
        exit_edge = np.argmin(om, axis=1)
        u = mesh.nbr[cur[move], exit_edge]
        onhull = u < 0
        state[move[onhull]] = 2
        hull_edge[move[onhull]] = exit_edge[onhull]
        cur[move[~onhull]] = u[~onhull]
    state[state == 0] = 3  # walk did not terminate -> abort

    # Hull escapes: target becomes the crossed segment's midpoint.
    for i in np.flatnonzero(state == 2).tolist():
        va, vb = mesh.edge_vertices(int(cur[i]), int(hull_edge[i]))
        tx[i], ty[i] = geo.segment_midpoint(mesh.px[va], mesh.py[va],
                                            mesh.px[vb], mesh.py[vb])

    on_boundary = state == 2
    plans: list[RefinePlan] = [None] * k  # type: ignore[list-item]
    for i in np.flatnonzero(state == 3).tolist():
        plans[i] = RefinePlan(int(slots[i]), False, "walk-abort")

    active = np.flatnonzero((state == 1) | (state == 2))
    cavities, hull_edges_of = _expand_cavities(mesh, px, py, cur, tx, ty,
                                               active, stats)

    # Encroachment: redo items whose center encroaches a cavity segment.
    redo = []
    for i in active.tolist():
        if state[i] != 1:
            continue
        for (t, e) in hull_edges_of.get(i, ()):
            va, vb = mesh.edge_vertices(t, e)
            if geo.diametral_contains(mesh.px[va], mesh.py[va], mesh.px[vb],
                                      mesh.py[vb], tx[i], ty[i]):
                tx[i], ty[i] = geo.segment_midpoint(
                    mesh.px[va], mesh.py[va], mesh.px[vb], mesh.py[vb])
                cur[i] = t
                on_boundary[i] = True
                redo.append(i)
                break
    if redo:
        redo_arr = np.asarray(redo, dtype=np.int64)
        cav2, _ = _expand_cavities(mesh, px, py, cur, tx, ty, redo_arr, stats)
        cavities.update(cav2)

    for i in active.tolist():
        cav = cavities.get(i)
        if cav is None:
            plans[i] = RefinePlan(int(slots[i]), False, "cavity-abort")
            continue
        seed = int(cur[i])
        dup = any(mesh.px[v] == tx[i] and mesh.py[v] == ty[i]
                  for v in mesh.tri[seed])
        if dup:
            plans[i] = RefinePlan(int(slots[i]), False, "duplicate-point")
            continue
        ring = []
        inside = set(cav)
        for t in cav:
            for e in range(3):
                u = int(mesh.nbr[t, e])
                if u >= 0 and u not in inside:
                    ring.append(u)
        ring = list(dict.fromkeys(ring))
        plans[i] = RefinePlan(int(slots[i]), True, x=float(tx[i]),
                              y=float(ty[i]), on_boundary=bool(on_boundary[i]),
                              cavity=cav, ring=ring,
                              walk_steps=int(stats["walk_steps"][i]))
    return plans, stats


def _expand_cavities(mesh: TriMesh, px, py, cur, tx, ty,
                     active: np.ndarray, stats: dict):
    """Level-synchronous cavity expansion for the given item indices.

    Returns ``(cavities, hull_edges_of)``: per-item cavity slot lists
    (missing key = aborted oversize cavity) and the cavity-bounding hull
    edges encountered, for the encroachment pass.
    """
    cavities: dict[int, list[int]] = {int(i): [int(cur[i])] for i in active}
    visited: set[int] = {(int(i) << 34) | int(cur[i]) for i in active}
    hull_edges_of: dict[int, list] = {}
    frontier_items = [int(i) for i in active]
    frontier_tris = [int(cur[i]) for i in active]
    while frontier_items:
        items = np.asarray(frontier_items, dtype=np.int64)
        tris = np.asarray(frontier_tris, dtype=np.int64)
        nbrs = mesh.nbr[tris]                       # (f, 3)
        stats["reads"] += _locality_words(np.repeat(tris, 3), nbrs.ravel())
        cand_items = np.repeat(items, 3)
        cand_from = np.repeat(tris, 3)
        cand_edge = np.tile(np.arange(3), items.size)
        cand_tris = nbrs.ravel()
        onhull = cand_tris < 0
        for ii, ft, fe in zip(cand_items[onhull].tolist(),
                              cand_from[onhull].tolist(),
                              cand_edge[onhull].tolist()):
            hull_edges_of.setdefault(ii, []).append((ft, fe))
        keep = ~onhull
        cand_items, cand_tris = cand_items[keep], cand_tris[keep]
        fresh = np.asarray([(int(i) << 34) | int(t) not in visited
                            for i, t in zip(cand_items, cand_tris)], dtype=bool) \
            if cand_items.size else np.zeros(0, dtype=bool)
        cand_items, cand_tris = cand_items[fresh], cand_tris[fresh]
        if cand_items.size == 0:
            break
        v = mesh.tri[cand_tris]
        inc = geo.incircle_many(px[v[:, 0]], py[v[:, 0]], px[v[:, 1]],
                                py[v[:, 1]], px[v[:, 2]], py[v[:, 2]],
                                tx[cand_items].astype(px.dtype),
                                ty[cand_items].astype(px.dtype))
        stats["reads"] += 8 * cand_items.size
        accept = inc > 0
        frontier_items, frontier_tris = [], []
        for i, t in zip(cand_items[accept].tolist(), cand_tris[accept].tolist()):
            key = (i << 34) | t
            if key in visited:
                continue
            visited.add(key)
            if i not in cavities:
                continue
            cavities[i].append(t)
            if len(cavities[i]) > MAX_CAVITY:
                del cavities[i]  # oversize -> abort this item
                continue
            frontier_items.append(i)
            frontier_tris.append(t)
        # also de-duplicate visits among rejected candidates
        for i, t in zip(cand_items[~accept].tolist(),
                        cand_tris[~accept].tolist()):
            visited.add((i << 34) | t)
    return cavities, hull_edges_of



# ------------------------------------------------------------------ #
# The host refinement loop                                           #
# ------------------------------------------------------------------ #

def refine_gpu(mesh: TriMesh, config: DMRConfig | None = None,
               counter: OpCounter | None = None, *,
               sanitizer=None, tracer=None, resilience=None) -> DMRResult:
    """Refine ``mesh`` with the simulated-GPU kernel; returns statistics.

    Structure follows the paper's Fig. 3: the host launches the
    refinement kernel once per do-while iteration; *inside* a kernel,
    every thread works through its local worklist one item per
    barrier-separated wave (two marking barriers per wave), and
    conflicting threads back off, setting ``changed`` so the host
    re-launches.  A kernel dispatch is therefore charged per outer
    iteration, barriers per wave.

    The input mesh object is not mutated when ``config.layout_opt`` is
    set (a reordered copy is refined); the refined mesh is in
    ``result.mesh`` either way.

    ``sanitizer`` (opt-in) activates a :mod:`repro.analysis` detector
    for the duration of the refinement: every marking round is audited
    and the device primitives report to its shadow memory.

    ``tracer`` (opt-in) activates a :mod:`repro.obs` tracer: the run is
    recorded as a span hierarchy (driver -> iteration -> launches and
    host transfers) priced by the cost model, plus gauges, without
    perturbing the refinement (no RNG draws, no state changes).

    ``resilience`` (opt-in, a :class:`repro.resilience.Resilience`)
    degrades gracefully under device faults: transient kernel aborts at
    the do-while boundary are re-issued, refused over-allocating growth
    falls back to exact-fit (§7.1 growth-and-retry — byte-identical
    results either way), and §7.2 recycle-pool exhaustion falls back to
    Marking deletion.  Without it, injected faults propagate as typed
    :class:`repro.errors.ReproError`\\ s.
    """
    with SANITIZER.maybe_activate(sanitizer):
        with TRACER.maybe_activate(tracer):
            with trace_span("dmr.refine_gpu", cat="driver"):
                return _refine_impl(mesh, config, counter, resilience)


def _refine_impl(mesh: TriMesh, config: DMRConfig | None,
                 counter: OpCounter | None, resil=None) -> DMRResult:
    cfg = config or DMRConfig()
    rng = np.random.default_rng(cfg.seed)
    ctr = counter or OpCounter()
    dtype = np.float32 if cfg.precision == "float32" else np.float64
    cfg.record_cost_config(ctr)

    if cfg.layout_opt:
        mesh = reorder_mesh(mesh)
    # Fig. 3: "transfer initial mesh  // CPU -> GPU" — 2 coordinate words
    # per point, 9 structure words per triangle slot.
    fault_transfer(2 * mesh.n_pts + 9 * mesh.num_triangles)
    ctr.bump("h2d_words", 2 * mesh.n_pts + 9 * mesh.num_triangles)
    ctr.bump("xfer_calls", 1)
    pool = (ResilientRecyclePool(RecyclePool(), resilience=resil)
            if resil is not None else RecyclePool())
    marks = np.full(mesh.tri.shape[0], -1, dtype=np.int64)

    processed = aborted_conf = aborted_geom = added = 0
    parallelism: list[int] = []
    outer = 0
    guards = False
    prev_abort_ratio = 0.0
    while outer < cfg.max_rounds:
        bad_all = mesh.bad_slots()
        if bad_all.size == 0:
            break
        if not launch_ok(resil, "dmr.round"):
            continue        # absorbed transient abort: re-issue the launch
        launch = cfg.adaptive.next(outer, abort_ratio=prev_abort_ratio,
                                   pending=int(bad_all.size))
        outer += 1
        ctr.scalars["cfg_blocks"] = launch.blocks
        ctr.scalars["cfg_tpb"] = launch.threads_per_block
        tr = TRACER.current
        if tr is not None:
            # Explicit begin/end (not a with-block): the span covers the
            # whole do-while iteration below.
            tr.on_span_begin("dmr.iteration", cat="iteration", round=outer)
            tr.on_gauge("launch.blocks", launch.blocks)
            tr.on_gauge("launch.tpb", launch.threads_per_block)
            tr.on_gauge("dmr.bad_pending", int(bad_all.size))
        live_count = int((~mesh.isdel[: mesh.n_tris]).sum())
        threads_eff = min(launch.total_threads,
                          max(1, live_count // cfg.min_chunk))

        # Distribute this kernel's worklist over the threads.
        dequeue_atomics_per_item = 0
        if cfg.local_worklists:
            # Thread i owns the bad triangles inside its contiguous slot
            # chunk; waves walk each thread's list in order, so in-flight
            # items are spatially spread.
            owner = bad_all * np.int64(threads_eff) // max(1, mesh.n_tris)
        else:
            # Central queue: thread = pop order modulo thread count; the
            # in-flight wave is a contiguous (clustered) run of the queue
            # and every pop costs an atomic.
            owner = np.arange(bad_all.size, dtype=np.int64) % threads_eff
            dequeue_atomics_per_item = 1
        # rank of each item within its owner's list = wave number
        order = np.argsort(owner, kind="stable")
        ranks = np.empty(bad_all.size, dtype=np.int64)
        sowner = owner[order]
        first = np.concatenate(([True], sowner[1:] != sowner[:-1]))
        idx_in_run = np.arange(bad_all.size) - np.maximum.accumulate(
            np.where(first, np.arange(bad_all.size), 0))
        ranks[order] = idx_in_run
        n_waves = int(ranks.max()) + 1 if bad_all.size else 0

        kern_round_wins = 0
        kern_attempts = 0
        san = SANITIZER.current
        if san is not None:
            # One sanitizer kernel scope per do-while iteration, matching
            # the dispatch granularity the cost model charges.
            san.on_kernel_begin("dmr.refine", round=outer)
        for wave in range(n_waves):
            attempt = bad_all[ranks == wave]
            # Items fixed/deleted by earlier waves of this kernel are
            # skipped with a cheap flag check.
            alive = ~mesh.isdel[attempt] & mesh.isbad[attempt]
            attempt = attempt[alive]
            if attempt.size == 0:
                continue
            kern_attempts += attempt.size
            plans, pstats = _plan_batch(mesh, attempt, dtype, rng)
            ok_idx = [i for i, p in enumerate(plans) if p.ok]
            aborted_geom += len(plans) - len(ok_idx)

            claims = Ragged.from_lists([plans[i].claims for i in ok_idx])
            if marks.size < mesh.tri.shape[0]:
                marks = np.full(mesh.tri.shape[0], -1, dtype=np.int64)
            atomics = dequeue_atomics_per_item * attempt.size
            prios = (rng.permutation(len(ok_idx))
                     if cfg.priority == "random" else None)
            if cfg.conflict == "2phase-unsafe":
                res = two_phase_mark(mesh.tri.shape[0], claims, rng,
                                     priorities=prios)
                barriers = 1
            else:
                res = three_phase_mark(mesh.tri.shape[0], claims, rng,
                                       marks=marks, priorities=prios,
                                       ensure_progress=True)
                barriers = res.barriers
                if cfg.conflict == "locks":
                    # Lock-based claiming: ~2 atomics per element plus
                    # retries by the losers.
                    atomics += 2 * claims.total() + 3 * res.num_aborted
            winners = [ok_idx[j] for j in np.flatnonzero(res.winners)]
            aborted_conf += res.num_aborted

            # Storage growth happens at wave granularity.  With an
            # over-allocation factor > 1 the host reallocs (copying the
            # arrays) rarely; factor <= 1.0 models the paper's on-demand
            # mode (Fig. 8 row 8): winners draw fresh slots from
            # in-kernel device malloc — no copies, a heap op per winner.
            need_total = sum(len(plans[i].cavity) + 4 for i in winners)
            fresh_needed = max(0, need_total - len(pool))
            if mesh.n_tris + fresh_needed > mesh.tri.shape[0]:
                if cfg.growth_factor <= 1.0:
                    mesh.ensure_tri_capacity(mesh.n_tris + fresh_needed)
                    # allocations coalesce per warp of winners
                    ctr.bump("kernel_mallocs", len(winners) // 32 + 1)
                else:
                    grow = max(mesh.n_tris + fresh_needed,
                               int(mesh.tri.shape[0] * cfg.growth_factor) + 8)
                    grow_array(resil, mesh.ensure_tri_capacity,
                               preferred=grow,
                               exact=mesh.n_tris + fresh_needed)
                    ctr.bump("reallocs")
                    ctr.bump("realloc_words", 9 * mesh.n_tris)
                marks = np.full(mesh.tri.shape[0], -1, dtype=np.int64)
            write_words = 0
            wave_wins = 0
            new_slots: list[int] = []
            for i in winners:
                p = plans[i]
                need = len(p.cavity) + 4
                slots, new_tail = pool.allocate(need, mesh.n_tris)
                mesh.n_tris = max(mesh.n_tris, new_tail)
                try:
                    info = apply_plan(mesh, p, slots)
                except CavityError:
                    aborted_geom += 1
                    pool.release(slots)  # unused; slots remain free
                    continue
                new_slots += info.new_slots
                used = set(info.new_slots)
                unused = [s for s in slots.tolist() if s not in used]
                if unused:
                    mesh.isdel[np.asarray(unused, dtype=np.int64)] = True
                    pool.release(np.asarray(unused, dtype=np.int64))
                pool.release(np.asarray(p.cavity, dtype=np.int64))
                write_words += 12 * info.new_size + len(p.cavity)
                processed += 1
                wave_wins += 1
                added += 1
            mesh.recompute_quality(new_slots)
            parallelism.append(wave_wins)
            kern_round_wins += wave_wins

            work = _wave_work(attempt, plans, threads_eff, live_count,
                              cfg.sort_work)
            ctr.launch(
                "dmr.refine",
                items=len(plans),
                aborted=len(plans) - wave_wins,
                word_reads=pstats["reads"] + attempt.size,
                word_writes=write_words + claims.total(),
                atomics=atomics,
                barriers=barriers,
                work_per_thread=work,
                count_launch=(wave == 0),
            )
        if san is not None:
            san.on_kernel_end("dmr.refine")
        # One topology-driven scan per kernel launch finds the bad
        # triangles (reads every live flag once), and the host reads the
        # changed flag back after every launch (Fig. 3).
        ctr.launch("dmr.refine", word_reads=live_count, barriers=1,
                   count_launch=False)
        ctr.bump("d2h_words", 1)
        ctr.bump("xfer_calls", 1)
        prev_abort_ratio = 1.0 - kern_round_wins / max(1, kern_attempts)
        if tr is not None:
            tr.on_gauge("dmr.recycle_free", len(pool))
            tr.on_gauge("dmr.abort_ratio", prev_abort_ratio)
            tr.on_span_end()
    else:
        guards = True

    # Fig. 3: "transfer refined mesh  // GPU -> CPU".
    fault_transfer(2 * mesh.n_pts + 9 * mesh.num_triangles)
    ctr.bump("d2h_words", 2 * mesh.n_pts + 9 * mesh.num_triangles)
    ctr.bump("xfer_calls", 1)
    return DMRResult(mesh=mesh, counter=ctr, rounds=outer,
                     processed=processed, aborted_conflicts=aborted_conf,
                     aborted_geometry=aborted_geom, points_added=added,
                     parallelism=parallelism, guards_bound=guards)


def _wave_work(attempt: np.ndarray, plans, threads: int, live: int,
               sort_work: bool) -> np.ndarray:
    """Per-thread work vector for one wave's divergence accounting.

    Each wave dispatches one item per owning thread; the remaining
    threads idle-scan.  Without work sorting, heavy lanes sit wherever
    the owning threads are; with sorting (Section 7.6), active items
    pack into the leading warps.
    """
    work = np.ones(max(threads, attempt.size), dtype=np.int64)
    for i, p in enumerate(plans):
        w = p.walk_steps + 3 * (len(p.cavity) + len(p.ring)) + 8 if p.ok else 4
        if sort_work:
            work[i] += w
        else:
            work[int(attempt[i]) % work.size] += w
    return work


# ------------------------------------------------------------------ #
# repro.serve adapter                                                #
# ------------------------------------------------------------------ #

def dmr_sizes(params) -> dict:
    """``n_triangles`` (default 600), as :func:`dmr_input` reads it."""
    return {"n_triangles": int(params.get("n_triangles", 600))}


def dmr_input(params, seed: int):
    """``(mesh, ops)``: a random mesh of :func:`dmr_sizes` from ``seed``
    and the checked ``insert_points`` stream ``params["mutations"]``,
    which :func:`dmr_insert` applies."""
    from ..meshing.generate import random_mesh
    from ..serve.mutations import check_mutations

    ops = check_mutations("dmr", params.get("mutations", ()))
    return random_mesh(dmr_sizes(params)["n_triangles"], seed=seed), ops


def dmr_config(strategy, seed: int) -> DMRConfig:
    """The :class:`DMRConfig` a strategy dict describes."""
    kwargs = {k: strategy[k] for k in
              ("conflict", "layout_opt", "local_worklists", "sort_work",
               "precision", "growth_factor", "priority", "min_chunk")
              if k in strategy}
    if "barrier" in strategy:
        kwargs["barrier"] = BARRIERS[strategy["barrier"]]
    if "adaptive" in strategy:
        kwargs["adaptive"] = adaptive_from_dict(strategy["adaptive"])
    return DMRConfig(seed=seed, **kwargs)


def dmr_insert(mesh: TriMesh, ops, cfg: DMRConfig, counter,
               resilience=None) -> TriMesh:
    """Insert each op's points through the §9 driver; returns the mesh.

    The refine that follows prices the whole counter under ``cfg``, so
    its cost configuration is recorded before the inserts' first launch.
    """
    from ..meshing.gpu_insert import gpu_insert_points
    from ..serve.mutations import mutation_points

    cfg.record_cost_config(counter)
    for op in ops:
        mx, my = mutation_points(op)
        mesh = gpu_insert_points(mesh, mx, my, seed=int(op.get("seed", 0)),
                                 counter=counter,
                                 resilience=resilience).mesh
    return mesh


def dmr_refine(mesh: TriMesh, cfg: DMRConfig, counter, resilience=None):
    """Refine ``mesh``; returns the job's ``(arrays, summary)``."""
    res = refine_gpu(mesh, cfg, counter=counter, resilience=resilience)
    out = res.mesh
    arrays = (out.tri[: out.n_tris], out.px[: out.n_pts],
              out.py[: out.n_pts], out.isdel[: out.n_tris])
    summary = {"rounds": res.rounds, "processed": res.processed,
               "points_added": res.points_added,
               "aborted_conflicts": res.aborted_conflicts,
               "aborted_geometry": res.aborted_geometry,
               "converged": res.converged,
               "triangles": int(out.num_triangles)}
    return arrays, summary


def serve_job(params, strategy, seed, ctx):
    """Job adapter for :mod:`repro.serve` (``algorithm="dmr"``).

    Builds a ``params["n_triangles"]``-triangle random mesh from
    ``seed`` and refines it.  ``strategy`` keys map onto
    :class:`DMRConfig`: ``conflict``, ``barrier`` (``"fence"`` /
    ``"hierarchical"`` / ``"naive"``), ``layout_opt``,
    ``local_worklists``, ``sort_work``, ``precision``,
    ``growth_factor``, ``priority``, ``min_chunk``, and ``adaptive``
    (a :func:`repro.core.adaptive.adaptive_from_dict` encoding).
    ``strategy="auto"`` (or ``tuned: true`` in the dict) substitutes
    the :mod:`repro.tune` cached/tuned configuration; unknown keys
    raise ``ValueError``.

    ``params["mutations"]`` may carry an ``insert_points`` stream
    (:mod:`repro.serve.mutations`): each op inserts ``count`` seeded
    interior points through the §9 GPU insertion driver *before*
    refinement, so the job models "mesh mutated, then re-refined" — the
    dynamic-update scenario recorded traces replay.

    Composes :func:`dmr_input`, :func:`dmr_config`, :func:`dmr_insert`
    and :func:`dmr_refine`, as the session planner does.
    """
    from ..tune import resolve_strategy

    strategy = resolve_strategy("dmr", params, strategy)
    cfg = dmr_config(strategy, seed)
    mesh, ops = dmr_input(params, seed)
    resilience = getattr(ctx, "resilience", None)
    mesh = dmr_insert(mesh, ops, cfg, ctx.counter, resilience)
    return dmr_refine(mesh, cfg, ctx.counter, resilience)
