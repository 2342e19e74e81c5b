"""Parallel Delaunay edge-flipping (the related-work morph of Section 9).

"A refinement algorithm based on edge-flipping has been proposed by
Navarro et al. [22].  Although it is a morph algorithm ... the number
of nodes and edges in the mesh do not change during execution.
Instead, edges are flipped to obtain a better triangulation."

:func:`legalize_gpu` turns an arbitrary valid triangulation into a
Delaunay one by concurrently flipping every locally-non-Delaunay edge:
each flip claims its two triangles plus their outer ring (the link
surgery touches the ring's adjacency entries) and goes through the
generic morph engine (:func:`repro.core.engine.run_morph_rounds`) —
i.e. the same 3-phase conflict resolution as DMR, exercised on a fifth
workload with *zero* allocation or deletion.

Termination: each flip strictly decreases the lexicographically sorted
circumcircle potential (the classical Lawson argument), so the engine's
round loop always ends.

:func:`random_legal_flips` is the test utility that *un-legalizes* a
Delaunay mesh by applying random legal (convex-quad) flips, producing
valid non-Delaunay inputs with a known-recoverable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import OpCounter
from ..core.engine import MorphPlan, run_morph_rounds
from ..vgpu.instrument import trace_span
from . import geometry as geo
from .mesh import TriMesh

__all__ = ["FlipResult", "flip_edge", "find_nondelaunay_edges",
           "legalize_gpu", "random_legal_flips"]


def find_nondelaunay_edges(mesh: TriMesh) -> list[tuple[int, int]]:
    """Interior edges ``(t, k)`` (with ``t < nbr``) that fail the local
    Delaunay test: the neighbor's opposite vertex lies strictly inside
    t's circumcircle."""
    out = []
    for t in mesh.live_slots().tolist():
        va, vb, vc = (int(v) for v in mesh.tri[t])
        for k in range(3):
            u = int(mesh.nbr[t, k])
            if u < 0 or u < t:
                continue  # boundary, or counted from the other side
            j = int(mesh.nbr_edge[t, k])
            d = int(mesh.tri[u, (j + 2) % 3])
            if geo.incircle(mesh.px[va], mesh.py[va], mesh.px[vb],
                            mesh.py[vb], mesh.px[vc], mesh.py[vc],
                            mesh.px[d], mesh.py[d]) > 0:
                out.append((t, k))
    return out


def _flip_is_legal(mesh: TriMesh, t: int, k: int) -> bool:
    """The quad around edge (t, k) must be strictly convex to flip."""
    a, b = mesh.edge_vertices(t, k)
    c = int(mesh.tri[t, (k + 2) % 3])
    u = int(mesh.nbr[t, k])
    j = int(mesh.nbr_edge[t, k])
    d = int(mesh.tri[u, (j + 2) % 3])
    # new triangles (a, d, c) and (d, b, c) must both be CCW
    return (geo.orient2d(mesh.px[a], mesh.py[a], mesh.px[d], mesh.py[d],
                         mesh.px[c], mesh.py[c]) > 0
            and geo.orient2d(mesh.px[d], mesh.py[d], mesh.px[b],
                             mesh.py[b], mesh.px[c], mesh.py[c]) > 0)


def flip_edge(mesh: TriMesh, t: int, k: int) -> None:
    """Flip the interior edge ``k`` of triangle ``t`` in place.

    The two incident triangles (a,b,c) / (b,a,d) become (a,d,c) /
    (d,b,c); the five adjacency links are rewired.  Raises ``ValueError``
    on boundary edges or non-convex quads.
    """
    u = int(mesh.nbr[t, k])
    if u < 0:
        raise ValueError("cannot flip a boundary edge")
    if not _flip_is_legal(mesh, t, k):
        raise ValueError("quad is not strictly convex; flip illegal")
    j = int(mesh.nbr_edge[t, k])
    a, b = mesh.edge_vertices(t, k)
    c = int(mesh.tri[t, (k + 2) % 3])
    d = int(mesh.tri[u, (j + 2) % 3])
    # external neighbors (and their reciprocal edge ids), pre-surgery
    at_, at_e = int(mesh.nbr[t, (k + 2) % 3]), int(mesh.nbr_edge[t, (k + 2) % 3])  # (c,a)
    bt_, bt_e = int(mesh.nbr[t, (k + 1) % 3]), int(mesh.nbr_edge[t, (k + 1) % 3])  # (b,c)
    au_, au_e = int(mesh.nbr[u, (j + 1) % 3]), int(mesh.nbr_edge[u, (j + 1) % 3])  # (a,d)
    bu_, bu_e = int(mesh.nbr[u, (j + 2) % 3]), int(mesh.nbr_edge[u, (j + 2) % 3])  # (d,b)

    mesh.write_triangle(t, a, d, c)   # edges: (a,d) (d,c) (c,a)
    mesh.write_triangle(u, d, b, c)   # edges: (d,b) (b,c) (c,d)
    mesh.link(t, 0, au_, au_e)
    mesh.link(t, 1, u, 2)
    mesh.link(t, 2, at_, at_e)
    mesh.link(u, 0, bu_, bu_e)
    mesh.link(u, 1, bt_, bt_e)


@dataclass
class FlipResult:
    mesh: TriMesh
    counter: OpCounter
    flips: int
    rounds: int
    aborted: int

    @property
    def abort_ratio(self) -> float:
        total = self.flips + self.aborted
        return self.aborted / total if total else 0.0


def legalize_gpu(mesh: TriMesh, *, seed: int = 0,
                 counter: OpCounter | None = None) -> FlipResult:
    """Flip concurrently until the mesh is Delaunay (mutates in place).

    An active sanitizer audits the legalization rounds; under an active
    :mod:`repro.obs` tracer the morph engine supplies the per-round
    spans.
    """
    with trace_span("meshing.legalize_gpu", cat="driver"):
        return _legalize_impl(mesh, seed=seed, counter=counter)


def _legalize_impl(mesh: TriMesh, *, seed: int,
                   counter: OpCounter | None) -> FlipResult:
    rng = np.random.default_rng(seed)
    ctr = counter or OpCounter()

    def active():
        return find_nondelaunay_edges(mesh)

    def plan(items, _rng):
        for (t, k) in items:
            u = int(mesh.nbr[t, k])
            if u < 0:
                continue
            claims = {t, u}
            for x in (t, u):
                for e in range(3):
                    n = int(mesh.nbr[x, e])
                    if n >= 0:
                        claims.add(n)
            yield MorphPlan(item=(t, k), claims=sorted(claims),
                            token=(t, k))

    def apply(p):
        t, k = p.token
        u = int(mesh.nbr[t, k])
        if u < 0:
            return False
        j = int(mesh.nbr_edge[t, k])
        va, vb, vc = (int(v) for v in mesh.tri[t])
        d = int(mesh.tri[u, (j + 2) % 3])
        still_bad = geo.incircle(mesh.px[va], mesh.py[va], mesh.px[vb],
                                 mesh.py[vb], mesh.px[vc], mesh.py[vc],
                                 mesh.px[d], mesh.py[d]) > 0
        if not still_bad or not _flip_is_legal(mesh, t, k):
            return False
        flip_edge(mesh, t, k)
        return True

    stats = run_morph_rounds(active, plan, apply,
                             lambda: mesh.tri.shape[0], rng=rng,
                             counter=ctr, kernel="flip.round",
                             ensure_progress=True)
    return FlipResult(mesh=mesh, counter=ctr, flips=stats.applied,
                      rounds=stats.rounds, aborted=stats.aborted)


def random_legal_flips(mesh: TriMesh, n_flips: int, seed: int = 0) -> int:
    """Un-legalize a mesh with random convex-quad flips (test utility).

    Returns how many flips were performed (candidates are rejected when
    their quad is not strictly convex or the edge is on the boundary).
    """
    rng = np.random.default_rng(seed)
    done = 0
    live = mesh.live_slots()
    attempts = 0
    while done < n_flips and attempts < 50 * n_flips:
        attempts += 1
        t = int(live[rng.integers(live.size)])
        k = int(rng.integers(3))
        u = int(mesh.nbr[t, k])
        if u < 0 or not _flip_is_legal(mesh, t, k):
            continue
        flip_edge(mesh, t, k)
        done += 1
    return done
