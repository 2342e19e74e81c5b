"""Refinement planning: what fixing one bad triangle entails.

Fixing a bad triangle (Section 2, Fig. 1):

1. compute its circumcenter;
2. walk from the triangle toward the circumcenter; if the walk crosses
   the mesh boundary, the crossed boundary segment is *split at its
   midpoint* instead;
3. carve the Delaunay cavity of the insertion point (all triangles
   whose circumcircle contains it, grown from the containing triangle);
   if the circumcenter *encroaches* a boundary segment bounding its
   cavity (lies inside the segment's diametral circle — Ruppert's
   rule), reject the circumcenter and split that segment instead;
4. retriangulate the cavity as a fan around the new point.

Without step 3's encroachment rule, circumcenter insertion near the
hull cascades: midpoints spawn skinny boundary triangles whose centers
escape again, and refinement at a 30-degree bound does not terminate.

:func:`plan_refinement` performs 1-3 with exact predicates and returns a
:class:`RefinePlan`; :func:`apply_plan` performs 4 through the shared
:func:`repro.meshing.cavity.retriangulate` core.  The sequential and
speculative-multicore baselines use these directly; the GPU kernel plans
in vectorized device arithmetic (:mod:`.refine`) but applies winners
through the same :func:`apply_plan`, so every path shares one mutation
core.  Quality flags of the new triangles are scored by the callers
with :meth:`TriMesh.recompute_quality`: once per wave in the GPU
kernel, after each applied plan in the baselines (their worklists read
``isbad`` between operations).

The *claim set* of a plan is the cavity plus its outer ring of
neighbors: the rewrite updates adjacency links in the ring, so two
operations whose cavities merely touch still conflict (the cautious
neighborhood of [19]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..meshing import geometry as geo
from ..meshing.cavity import delaunay_cavity, locate, retriangulate
from ..meshing.mesh import TriMesh

__all__ = ["RefinePlan", "plan_refinement", "apply_plan", "claim_set"]

#: Triangles with circumradius below this floor are never refined — a
#: floating-point safety net; tests assert it does not bind on our inputs.
MIN_CIRCUMRADIUS = 1e-9


@dataclass
class RefinePlan:
    """A planned (not yet applied) refinement of one bad triangle."""

    slot: int                      # the bad triangle
    ok: bool                       # False -> skipped (reason set)
    reason: str = ""
    x: float = 0.0                 # insertion point
    y: float = 0.0
    on_boundary: bool = False      # midpoint-split case
    cavity: list = field(default_factory=list)
    ring: list = field(default_factory=list)
    walk_steps: int = 0

    @property
    def claims(self) -> list:
        return self.cavity + self.ring


def claim_set(mesh: TriMesh, cavity: list[int]) -> list[int]:
    """Outer ring: live neighbors of cavity triangles outside the cavity."""
    inside = set(cavity)
    ring = []
    seen = set()
    for t in cavity:
        for k in range(3):
            u = int(mesh.nbr[t, k])
            if u >= 0 and u not in inside and u not in seen:
                seen.add(u)
                ring.append(u)
    return ring


def plan_refinement(mesh: TriMesh, slot: int,
                    rng: np.random.Generator | None = None) -> RefinePlan:
    """Exact-arithmetic planning for one bad triangle."""
    slot = int(slot)
    if mesh.isdel[slot]:
        return RefinePlan(slot, False, "deleted")
    a, b, c = (int(v) for v in mesh.tri[slot])
    try:
        cx, cy = geo.circumcenter(mesh.px[a], mesh.py[a], mesh.px[b],
                                  mesh.py[b], mesh.px[c], mesh.py[c])
    except ZeroDivisionError:
        return RefinePlan(slot, False, "degenerate")
    r = float(np.hypot(cx - mesh.px[a], cy - mesh.py[a]))
    if r < MIN_CIRCUMRADIUS:
        return RefinePlan(slot, False, "tiny")
    loc = locate(mesh, slot, cx, cy, rng=rng)
    on_boundary = False
    seed = loc.slot
    if loc.kind == "hull":
        # Circumcenter escapes the domain: split the crossed hull segment.
        seed, (cx, cy) = loc.slot, _split_point(mesh, loc.slot, loc.edge)
        on_boundary = True
        cavity = delaunay_cavity(mesh, seed, cx, cy)
    else:
        cavity = delaunay_cavity(mesh, seed, cx, cy)
        enc = _encroached_segment(mesh, cavity, cx, cy)
        if enc is not None:
            # Ruppert: split the encroached segment, not the center.
            seed, (cx, cy) = enc[0], _split_point(mesh, enc[0], enc[1])
            on_boundary = True
            cavity = delaunay_cavity(mesh, seed, cx, cy)
    # Reject insertion points that coincide with existing vertices.
    for v in mesh.tri[seed]:
        if mesh.px[v] == cx and mesh.py[v] == cy:
            return RefinePlan(slot, False, "duplicate-point")
    return RefinePlan(slot, True, x=cx, y=cy, on_boundary=on_boundary,
                      cavity=cavity, ring=claim_set(mesh, cavity),
                      walk_steps=loc.steps)


def _split_point(mesh: TriMesh, t: int, k: int) -> tuple[float, float]:
    va, vb = mesh.edge_vertices(t, k)
    return geo.segment_midpoint(mesh.px[va], mesh.py[va],
                                mesh.px[vb], mesh.py[vb])


def _encroached_segment(mesh: TriMesh, cavity: list[int], px: float,
                        py: float) -> tuple[int, int] | None:
    """First boundary segment bounding ``cavity`` whose diametral circle
    strictly contains the point, or None."""
    for t in cavity:
        for k in range(3):
            if mesh.nbr[t, k] >= 0:
                continue
            va, vb = mesh.edge_vertices(t, k)
            if geo.diametral_contains(mesh.px[va], mesh.py[va],
                                      mesh.px[vb], mesh.py[vb], px, py):
                return (t, k)
    return None


def apply_plan(mesh: TriMesh, plan: RefinePlan, slots: np.ndarray):
    """Execute a planned refinement; returns the CavityInfo.

    ``slots`` must hold at least ``len(plan.cavity) + 2`` free slots.
    Raises a typed :class:`repro.errors.CavityError` if the plan is
    geometrically inconsistent (possible when it was produced by the
    device-arithmetic planner); callers treat that as an aborted
    operation.  The retriangulation core runs its star-shape and slot
    checks before its first write, so the mesh is unmodified on failure.

    The new slots' ``isbad`` flags are not scored here: the caller
    scores ``info.new_slots`` with :meth:`TriMesh.recompute_quality`
    before it next reads ``isbad`` (see the module docstring).
    """
    if not plan.ok:
        raise ValueError(f"cannot apply skipped plan ({plan.reason})")
    return retriangulate(mesh, plan.cavity, plan.x, plan.y, slots)
