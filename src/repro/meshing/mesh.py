"""Triangle mesh in the paper's GPU layout (Section 6.2).

"The triangle vertices are stored in two associative arrays for the x
and y coordinates, and the n triangles are stored in an n x 3 matrix ...
the neighborhood information of the n triangles can be represented by an
n x 3 matrix.  ...  We further record which edge is common between a
triangle and its neighbor.  Additionally, we maintain a flag with each
triangle to denote if it is bad."

:class:`TriMesh` keeps exactly those arrays, slot-indexed so triangles
can be deleted (flag) and slots recycled:

* ``px``, ``py`` — point coordinates (grow-only),
* ``tri[t]  = (v0, v1, v2)`` — CCW vertex indices,
* ``nbr[t, k]`` — triangle adjacent across edge ``k`` (edge ``k`` joins
  vertices ``k`` and ``(k+1) % 3``), or -1 on the mesh boundary,
* ``nbr_edge[t, k]`` — which edge of ``nbr[t, k]`` is the shared one,
* ``isbad``, ``isdel`` — per-slot flags.

``isbad`` is scored by :meth:`TriMesh.recompute_quality`, which writers
call once per batch of new triangles.

Capacity beyond ``n_tris``/``n_pts`` is pre-grown by callers through the
addition strategies; all arrays for triangle slots share one capacity.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo

__all__ = ["TriMesh"]


class TriMesh:
    def __init__(self, px: np.ndarray, py: np.ndarray, tris: np.ndarray,
                 min_angle_deg: float = 30.0) -> None:
        npts = px.size
        self.px = np.ascontiguousarray(px, dtype=np.float64)
        self.py = np.ascontiguousarray(py, dtype=np.float64)
        if self.px.size != self.py.size:
            raise ValueError("px/py length mismatch")
        tris = np.ascontiguousarray(tris, dtype=np.int64)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("tris must be (n, 3)")
        if tris.size and (tris.min() < 0 or tris.max() >= npts):
            raise ValueError("triangle vertex index out of range")
        self.n_pts = npts
        self.n_tris = tris.shape[0]
        self.tri = tris
        self.min_angle_deg = min_angle_deg
        self.nbr = np.full_like(self.tri, -1)
        self.nbr_edge = np.full_like(self.tri, -1)
        self.isdel = np.zeros(self.n_tris, dtype=bool)
        self.isbad = np.zeros(self.n_tris, dtype=bool)
        self._orient_ccw()
        self.rebuild_neighbors()
        self.recompute_quality()

    # ------------------------------------------------------------------ #
    # Construction helpers                                               #
    # ------------------------------------------------------------------ #
    def _orient_ccw(self) -> None:
        """Flip clockwise triangles to counter-clockwise order."""
        if self.n_tris == 0:
            return
        a, b, c = (self.tri[: self.n_tris, k] for k in range(3))
        area2 = geo.orient2d_many(self.px[a], self.py[a], self.px[b],
                                  self.py[b], self.px[c], self.py[c])
        cw = area2 < 0
        self.tri[: self.n_tris][cw] = self.tri[: self.n_tris][cw][:, ::-1]

    def rebuild_neighbors(self, slots: np.ndarray | None = None) -> None:
        """(Re)compute ``nbr``/``nbr_edge`` from scratch over live triangles.

        Vectorized: every live directed edge ``(u, v)`` is keyed by the
        sorted pair; equal keys pair up adjacent triangles.  ``slots``
        restricts which rows get *written* (all live edges still
        participate in matching); None rewrites everything.
        """
        live = np.flatnonzero(~self.isdel[: self.n_tris])
        self.nbr[: self.n_tris] = -1
        self.nbr_edge[: self.n_tris] = -1
        if live.size == 0:
            return
        t = np.repeat(live, 3)
        k = np.tile(np.arange(3), live.size)
        u = self.tri[t, k]
        v = self.tri[t, (k + 1) % 3]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * np.int64(self.n_pts) + hi
        order = np.argsort(key, kind="stable")
        ks, ts, kk = key[order], t[order], k[order]
        same = ks[:-1] == ks[1:]
        i = np.flatnonzero(same)
        # Each undirected edge appears at most twice in a valid mesh.
        a_t, a_k = ts[i], kk[i]
        b_t, b_k = ts[i + 1], kk[i + 1]
        self.nbr[a_t, a_k] = b_t
        self.nbr_edge[a_t, a_k] = b_k
        self.nbr[b_t, b_k] = a_t
        self.nbr_edge[b_t, b_k] = a_k

    # ------------------------------------------------------------------ #
    # Accessors                                                          #
    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        return self.n_pts

    @property
    def num_triangles(self) -> int:
        """Live (undeleted) triangle count."""
        return int((~self.isdel[: self.n_tris]).sum())

    def live_slots(self) -> np.ndarray:
        return np.flatnonzero(~self.isdel[: self.n_tris])

    def bad_slots(self) -> np.ndarray:
        mask = self.isbad[: self.n_tris] & ~self.isdel[: self.n_tris]
        return np.flatnonzero(mask)

    def coords(self, slots) -> tuple[np.ndarray, ...]:
        """(ax, ay, bx, by, cx, cy) arrays for the given triangle slots."""
        tri = self.tri[slots]
        return (self.px[tri[..., 0]], self.py[tri[..., 0]],
                self.px[tri[..., 1]], self.py[tri[..., 1]],
                self.px[tri[..., 2]], self.py[tri[..., 2]])

    def edge_vertices(self, t: int, k: int) -> tuple[int, int]:
        return int(self.tri[t, k]), int(self.tri[t, (k + 1) % 3])

    def min_angles(self, slots) -> np.ndarray:
        return geo.min_angle_many(*self.coords(slots))

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #
    def ensure_tri_capacity(self, cap: int) -> None:
        """Grow triangle-slot arrays (host realloc); contents preserved."""
        old = self.tri.shape[0]
        if cap <= old:
            return
        grow = cap - old
        self.tri = np.concatenate([self.tri, np.zeros((grow, 3), np.int64)])
        self.nbr = np.concatenate([self.nbr, np.full((grow, 3), -1, np.int64)])
        self.nbr_edge = np.concatenate([self.nbr_edge,
                                        np.full((grow, 3), -1, np.int64)])
        self.isdel = np.concatenate([self.isdel, np.ones(grow, bool)])
        self.isbad = np.concatenate([self.isbad, np.zeros(grow, bool)])
        # slots in [n_tris, cap) are unoccupied: marked deleted until used

    def ensure_pt_capacity(self, cap: int) -> None:
        old = self.px.size
        if cap <= old:
            return
        self.px = np.concatenate([self.px, np.zeros(cap - old)])
        self.py = np.concatenate([self.py, np.zeros(cap - old)])

    def add_point(self, x: float, y: float) -> int:
        if self.n_pts >= self.px.size:
            self.ensure_pt_capacity(int(self.px.size * 1.5) + 1)
        self.px[self.n_pts] = x
        self.py[self.n_pts] = y
        self.n_pts += 1
        return self.n_pts - 1

    def write_triangle(self, slot: int, v0: int, v1: int, v2: int) -> None:
        """Occupy a slot with a CCW triangle and score its quality flag
        through :meth:`recompute_quality`; neighbors set separately.

        For single-triangle rewrites (:mod:`.edgeflip`).  The cavity fan
        of :func:`repro.meshing.cavity.retriangulate` writes its rows
        directly and its callers score each batch of new slots at once.
        """
        o = geo.orient2d(self.px[v0], self.py[v0], self.px[v1], self.py[v1],
                         self.px[v2], self.py[v2])
        if o < 0:
            v1, v2 = v2, v1
        elif o == 0:
            raise ValueError(f"degenerate triangle ({v0}, {v1}, {v2})")
        self.tri[slot] = (v0, v1, v2)
        self.nbr[slot] = -1
        self.nbr_edge[slot] = -1
        self.isdel[slot] = False
        self.n_tris = max(self.n_tris, slot + 1)
        self.recompute_quality([slot])

    def link(self, t: int, k: int, u: int, j: int) -> None:
        """Set mutual adjacency: edge k of t <-> edge j of u."""
        self.nbr[t, k] = u
        self.nbr_edge[t, k] = j
        if u >= 0:
            self.nbr[u, j] = t
            self.nbr_edge[u, j] = k

    def delete(self, slots) -> None:
        self.isdel[np.asarray(slots, dtype=np.int64)] = True

    def recompute_quality(self, slots: np.ndarray | None = None) -> None:
        """Score ``isbad`` over ``slots`` (default: every live slot) in
        one vectorized pass."""
        if slots is None:
            slots = self.live_slots()
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return
        bad = geo.is_bad_many(*self.coords(slots), self.min_angle_deg)
        self.isbad[slots] = bad

    # ------------------------------------------------------------------ #
    # Integrity                                                          #
    # ------------------------------------------------------------------ #
    def validate(self, check_delaunay: bool = False) -> None:
        """Raise AssertionError on any structural invariant violation."""
        live = self.live_slots()
        if live.size == 0:
            return
        a, b, c = (self.tri[live, k] for k in range(3))
        area2 = geo.orient2d_many(self.px[a], self.py[a], self.px[b],
                                  self.py[b], self.px[c], self.py[c])
        assert np.all(area2 > 0), "live triangle not CCW / degenerate"
        live_set = set(live.tolist())
        for t in live.tolist():
            for k in range(3):
                u = int(self.nbr[t, k])
                if u < 0:
                    continue
                assert u in live_set, f"neighbor {u} of {t} is deleted"
                j = int(self.nbr_edge[t, k])
                assert int(self.nbr[u, j]) == t, f"asymmetric link {t}<->{u}"
                assert int(self.nbr_edge[u, j]) == k
                e1 = set(self.edge_vertices(t, k))
                e2 = set(self.edge_vertices(u, j))
                assert e1 == e2, f"shared edge mismatch {t}/{u}: {e1} vs {e2}"
        # every undirected edge appears in <= 2 live triangles
        t = np.repeat(live, 3)
        k = np.tile(np.arange(3), live.size)
        u_, v_ = self.tri[t, k], self.tri[t, (k + 1) % 3]
        key = np.minimum(u_, v_) * np.int64(self.n_pts) + np.maximum(u_, v_)
        _, counts = np.unique(key, return_counts=True)
        assert counts.max() <= 2, "edge shared by >2 triangles"
        if check_delaunay:
            self.assert_delaunay()

    def assert_delaunay(self, tol_only_structural: bool = True) -> None:
        """Local Delaunay check: no neighbor's opposite vertex strictly
        inside a triangle's circumcircle (empty-circumcircle via flips)."""
        live = self.live_slots()
        for t in live.tolist():
            va, vb, vc = (int(v) for v in self.tri[t])
            for k in range(3):
                u = int(self.nbr[t, k])
                if u < 0:
                    continue
                j = int(self.nbr_edge[t, k])
                opp = int(self.tri[u, (j + 2) % 3])
                s = geo.incircle(self.px[va], self.py[va], self.px[vb],
                                 self.py[vb], self.px[vc], self.py[vc],
                                 self.px[opp], self.py[opp])
                assert s <= 0, f"non-Delaunay edge between {t} and {u}"

    def boundary_edges(self) -> list[tuple[int, int]]:
        """(slot, edge-index) pairs of live edges on the mesh boundary."""
        out = []
        for t in self.live_slots().tolist():
            for k in range(3):
                if self.nbr[t, k] < 0:
                    out.append((t, k))
        return out

    def copy(self) -> "TriMesh":
        m = object.__new__(TriMesh)
        m.px = self.px.copy()
        m.py = self.py.copy()
        m.tri = self.tri.copy()
        m.nbr = self.nbr.copy()
        m.nbr_edge = self.nbr_edge.copy()
        m.isdel = self.isdel.copy()
        m.isbad = self.isbad.copy()
        m.n_pts = self.n_pts
        m.n_tris = self.n_tris
        m.min_angle_deg = self.min_angle_deg
        return m
