"""Cavity operations: point location, Delaunay cavity, retriangulation.

These are the scalar (per-insertion) building blocks shared by the
incremental Bowyer-Watson triangulator (:mod:`.triangulation`) and the
sequential/speculative DMR baselines.  The GPU-style DMR kernel
(:mod:`repro.dmr.refine`) re-implements cavity *expansion* in a
level-synchronous vectorized form but reuses :func:`retriangulate`
for the winners' rewrites, so both paths share one correctness core.

All structural decisions go through the exact-fallback predicates in
:mod:`.geometry`.  Quality is not scored here: :func:`retriangulate`
leaves the new slots' ``isbad`` flags to its callers, which score each
batch of new triangles with one :meth:`TriMesh.recompute_quality` call
(a DMR wave, an insertion round, each plan the worklist baselines
apply; never in the Bowyer-Watson builder, whose final repack scores
every triangle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (CavityOversized, CavitySlotsExhausted, NotStarShaped,
                      WalkStuck)
from . import geometry as geo
from .mesh import TriMesh

__all__ = ["Located", "locate", "delaunay_cavity", "cavity_boundary",
           "retriangulate", "CavityInfo"]


@dataclass
class Located:
    """Result of a point-location walk."""

    kind: str          # "tri" (inside slot) or "hull" (escaped across edge)
    slot: int          # containing triangle, or last triangle before escape
    edge: int = -1     # for "hull": the boundary edge index crossed
    steps: int = 0     # walk length (for instrumentation)


def locate(mesh: TriMesh, start: int, x: float, y: float,
           rng: np.random.Generator | None = None,
           max_steps: int = 1_000_000) -> Located:
    """Visibility walk from triangle ``start`` toward point ``(x, y)``.

    Follows, at each triangle, an edge the point lies strictly outside
    of; with random choice among candidate edges the walk terminates on
    Delaunay meshes.  Returns the containing triangle, or the boundary
    edge through which the target escapes the mesh.
    """
    rng = rng or np.random.default_rng(12345)
    t = int(start)
    steps = 0
    while steps < max_steps:
        steps += 1
        vs = mesh.tri[t]
        outside = []
        for k in range(3):
            a, b = int(vs[k]), int(vs[(k + 1) % 3])
            if geo.orient2d(mesh.px[a], mesh.py[a], mesh.px[b], mesh.py[b],
                            x, y) < 0:
                outside.append(k)
        if not outside:
            return Located("tri", t, steps=steps)
        k = outside[0] if len(outside) == 1 else int(rng.choice(outside))
        u = int(mesh.nbr[t, k])
        if u < 0:
            return Located("hull", t, edge=k, steps=steps)
        t = u
    raise WalkStuck(f"point-location walk did not terminate "
                    f"(started at triangle {int(start)}, {steps} steps, "
                    f"target ({x}, {y}))", triangle=t, point=(x, y))


def delaunay_cavity(mesh: TriMesh, seed: int, x: float, y: float,
                    max_size: int = 100_000) -> list[int]:
    """All triangles whose circumcircle strictly contains ``(x, y)``,
    grown as a connected region from ``seed`` (which is always included:
    the seed contains the point, so its circumcircle does too)."""
    cavity = [int(seed)]
    in_cavity = {int(seed)}
    frontier = [int(seed)]
    while frontier:
        nxt = []
        for t in frontier:
            for k in range(3):
                u = int(mesh.nbr[t, k])
                if u < 0 or u in in_cavity:
                    continue
                va, vb, vc = (int(v) for v in mesh.tri[u])
                if geo.incircle(mesh.px[va], mesh.py[va], mesh.px[vb],
                                mesh.py[vb], mesh.px[vc], mesh.py[vc],
                                x, y) > 0:
                    in_cavity.add(u)
                    cavity.append(u)
                    nxt.append(u)
        frontier = nxt
        if len(cavity) > max_size:
            raise CavityOversized(
                f"cavity grew unreasonably large (> {max_size} triangles "
                f"from seed {int(seed)})", triangle=int(seed), point=(x, y))
    return cavity


def cavity_boundary(mesh: TriMesh, cavity: list[int]) -> list[tuple[int, int, int, int]]:
    """Boundary edges of a cavity as ``(t, k, u, j)`` tuples.

    ``(t, k)`` is a cavity triangle's edge whose neighbor ``u`` is
    outside the cavity (``u = -1``, ``j = -1`` on the mesh boundary).
    """
    in_cavity = set(cavity)
    out = []
    for t in cavity:
        for k in range(3):
            u = int(mesh.nbr[t, k])
            if u not in in_cavity:
                out.append((t, k, u, int(mesh.nbr_edge[t, k])))
    return out


@dataclass
class CavityInfo:
    """Result of one retriangulation."""

    new_slots: list
    new_point: int
    old_size: int
    new_size: int


def retriangulate(mesh: TriMesh, cavity: list[int], x: float, y: float,
                  slots: np.ndarray) -> CavityInfo:
    """Replace ``cavity`` with a fan of triangles around a new point.

    ``slots`` must provide at least ``len(boundary_edges)`` free triangle
    slots (callers obtain them from the recycle pool / array tail).  The
    cavity triangles are marked deleted; new triangles are written CCW,
    externally linked to the cavity's surroundings and internally linked
    to each other.  Boundary edges collinear with the new point (the
    hull-midpoint split case) produce no triangle — their two halves
    become new hull edges.

    Every check (star shape, slot count) runs before the first write, so
    a call that raises :class:`~repro.errors.NotStarShaped` or
    :class:`~repro.errors.CavitySlotsExhausted` leaves the mesh
    unmodified, new point included.  The new slots' ``isbad`` flags are
    not set: callers score them with :meth:`TriMesh.recompute_quality`
    before anything reads ``isbad``.

    Returns the new slots actually used (callers return extras to the
    pool).
    """
    boundary = cavity_boundary(mesh, cavity)
    # Pre-read shared-edge info before any rewrite.
    fans = []  # (a, b, outside_tri, outside_edge)
    for (t, k, u, j) in boundary:
        a, b = mesh.edge_vertices(t, k)
        o = geo.orient2d(mesh.px[a], mesh.py[a], mesh.px[b], mesh.py[b], x, y)
        if o == 0:
            # New point on this edge: legal only on the mesh boundary
            # (splitting a hull segment); interior edges whose line
            # contains p are strictly inside the circumcircles of both
            # adjacent triangles, so both sides are in the cavity and the
            # edge is not a boundary edge.
            if u >= 0:
                raise NotStarShaped(
                    "new point collinear with interior cavity boundary "
                    f"edge (triangle {t}, edge {k})",
                    triangle=t, point=(x, y))
            continue
        if o < 0:
            raise NotStarShaped(
                "cavity not star-shaped around new point "
                f"(triangle {t}, edge {k})", triangle=t, point=(x, y))
        fans.append((a, b, u, j))
    if len(fans) > slots.size:
        raise CavitySlotsExhausted(
            f"need {len(fans)} slots, got {slots.size}",
            requested=len(fans), available=int(slots.size))
    p = mesh.add_point(x, y)
    mesh.delete(np.asarray(cavity, dtype=np.int64))
    used = [int(slots[i]) for i in range(len(fans))]
    # Write fan triangles: vertex order (a, b, p) so edge 0 is (a, b);
    # (a, b, p) is CCW by the exact o > 0 check above.
    half_edge: dict[tuple[int, int], tuple[int, int]] = {}
    for slot, (a, b, u, j) in zip(used, fans):
        mesh.tri[slot] = (a, b, p)
        mesh.nbr[slot] = -1
        mesh.nbr_edge[slot] = -1
        mesh.isdel[slot] = False
        mesh.link(slot, 0, u, j)
        # Edges 1 = (b, p) and 2 = (p, a) pair with adjacent fan triangles.
        for k, (ua, ub) in ((1, (b, p)), (2, (p, a))):
            key = (min(ua, ub), max(ua, ub))
            if key in half_edge:
                ot, ok = half_edge.pop(key)
                mesh.link(slot, k, ot, ok)
            else:
                half_edge[(min(ua, ub), max(ua, ub))] = (slot, k)
    # Any unpaired fan edges become hull edges (midpoint-split case);
    # they keep the nbr = -1 written above.
    mesh.n_tris = max(mesh.n_tris, max(used, default=-1) + 1)
    return CavityInfo(new_slots=used, new_point=p,
                      old_size=len(cavity), new_size=len(fans))
