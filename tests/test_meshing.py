"""Tests for the mesh structure, triangulation, cavity ops, and I/O."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotStarShaped
from repro.meshing import (TriMesh, build_delaunay, cavity_boundary,
                           delaunay_cavity, locate, random_mesh,
                           retriangulate)
from repro.meshing.io import load_mesh, save_mesh
from repro.meshing.triangulation import morton_order


def assert_unmodified(m, before):
    """A failed mesh operation left no trace, new point included."""
    assert m.n_pts == before.n_pts
    assert m.n_tris == before.n_tris
    for name in ("px", "py", "tri", "nbr", "isdel", "isbad"):
        np.testing.assert_array_equal(getattr(m, name), getattr(before, name),
                                      err_msg=name)


def square_two_tris():
    px = np.array([0.0, 1.0, 1.0, 0.0])
    py = np.array([0.0, 0.0, 1.0, 1.0])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(px, py, tris)


class TestTriMesh:
    def test_construction(self):
        m = square_two_tris()
        assert m.num_points == 4
        assert m.num_triangles == 2
        m.validate(check_delaunay=True)

    def test_neighbors_symmetric(self):
        m = square_two_tris()
        found = False
        for t in range(2):
            for k in range(3):
                u = m.nbr[t, k]
                if u >= 0:
                    found = True
                    j = m.nbr_edge[t, k]
                    assert m.nbr[u, j] == t
        assert found

    def test_cw_input_flipped(self):
        px = np.array([0.0, 1.0, 0.0])
        py = np.array([0.0, 0.0, 1.0])
        m = TriMesh(px, py, np.array([[0, 2, 1]]))  # clockwise
        m.validate()

    def test_bad_flags(self):
        m = square_two_tris()
        # 45-45-90 triangles are fine at 30 degrees
        assert m.bad_slots().size == 0
        m2 = TriMesh(m.px, m.py, m.tri[:2].copy(), min_angle_deg=50)
        assert m2.bad_slots().size == 2

    def test_delete_and_live(self):
        m = square_two_tris()
        m.delete([0])
        assert m.num_triangles == 1
        assert m.live_slots().tolist() == [1]

    def test_out_of_range_vertex_raises(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros(2), np.zeros(2), np.array([[0, 1, 2]]))

    def test_add_point_growth(self):
        m = square_two_tris()
        for i in range(50):
            m.add_point(2.0 + i, 2.0)
        assert m.num_points == 54
        assert m.px[4] == 2.0

    def test_write_triangle_degenerate_raises(self):
        m = square_two_tris()
        m.add_point(0.5, 0.5)
        m.add_point(0.6, 0.6)
        m.add_point(0.7, 0.7)
        m.ensure_tri_capacity(4)
        with pytest.raises(ValueError):
            m.write_triangle(2, 4, 5, 6)

    def test_boundary_edges_of_square(self):
        m = square_two_tris()
        assert len(m.boundary_edges()) == 4

    def test_copy_independent(self):
        m = square_two_tris()
        c = m.copy()
        c.delete([0])
        assert m.num_triangles == 2
        assert c.num_triangles == 1

    def test_min_angles(self):
        m = square_two_tris()
        assert np.rad2deg(m.min_angles(m.live_slots())).min() == \
            pytest.approx(45)


class TestMortonOrder:
    def test_is_permutation(self, rng):
        x, y = rng.random(100), rng.random(100)
        order = morton_order(x, y)
        assert sorted(order.tolist()) == list(range(100))

    def test_locality(self, rng):
        x, y = rng.random(500), rng.random(500)
        order = morton_order(x, y)
        xs, ys = x[order], y[order]
        jumps = np.hypot(np.diff(xs), np.diff(ys))
        # consecutive points along the Z-curve are much closer than random
        rand_jumps = np.hypot(np.diff(x), np.diff(y))
        assert jumps.mean() < rand_jumps.mean() * 0.5


class TestBuildDelaunay:
    def test_matches_scipy_triangle_count(self):
        rng = np.random.default_rng(5)
        x, y = rng.random(300), rng.random(300)
        mesh = build_delaunay(x, y)
        mesh.validate(check_delaunay=True)
        from scipy.spatial import Delaunay
        pts = np.column_stack([mesh.px[:mesh.n_pts], mesh.py[:mesh.n_pts]])
        assert Delaunay(pts).simplices.shape[0] == mesh.num_triangles

    def test_duplicate_points_inserted_once(self):
        x = np.array([0.5, 0.5, 0.25, 0.75])
        y = np.array([0.5, 0.5, 0.25, 0.75])
        mesh = build_delaunay(x, y)
        assert mesh.num_points == 4 + 3  # corners + unique inputs
        mesh.validate(check_delaunay=True)

    def test_single_point(self):
        mesh = build_delaunay(np.array([0.5]), np.array([0.5]))
        assert mesh.num_triangles == 4
        mesh.validate()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_delaunay(np.array([]), np.array([]))

    @given(st.integers(2, 60), st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_valid_delaunay(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random(n), rng.random(n)
        mesh = build_delaunay(x, y)
        mesh.validate(check_delaunay=True)
        # Euler: a triangulated convex region with p points and 4 hull
        # corners has 2*(interior points) + 2 triangles
        hull_pts = 4
        interior = mesh.num_points - hull_pts
        assert mesh.num_triangles == 2 * interior + 2


class TestRandomMesh:
    def test_target_size(self):
        mesh = random_mesh(1000, seed=3)
        assert abs(mesh.num_triangles - 1000) < 50

    def test_roughly_half_bad(self):
        mesh = random_mesh(2000, seed=3)
        frac = mesh.bad_slots().size / mesh.num_triangles
        assert 0.3 < frac < 0.7  # the paper's "roughly half" regime

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            random_mesh(1)


class TestCavityOps:
    def test_locate_inside(self, small_mesh, rng):
        m = small_mesh
        # centroid of a live triangle must locate to it (or a duplicate
        # cover at the same point)
        t = int(m.live_slots()[5])
        vs = m.tri[t]
        cx = m.px[vs].mean()
        cy = m.py[vs].mean()
        loc = locate(m, int(m.live_slots()[0]), cx, cy, rng=rng)
        assert loc.kind == "tri"
        assert loc.slot == t

    def test_locate_outside_reports_hull(self, small_mesh, rng):
        m = small_mesh
        loc = locate(m, int(m.live_slots()[0]), 99.0, 99.0, rng=rng)
        assert loc.kind == "hull"
        assert m.nbr[loc.slot, loc.edge] == -1

    def test_cavity_contains_seed(self, small_mesh, rng):
        m = small_mesh
        t = int(m.live_slots()[3])
        vs = m.tri[t]
        cx, cy = m.px[vs].mean(), m.py[vs].mean()
        cav = delaunay_cavity(m, t, cx, cy)
        assert t in cav

    def test_cavity_boundary_closed(self, small_mesh, rng):
        m = small_mesh
        t = int(m.live_slots()[3])
        vs = m.tri[t]
        cx, cy = m.px[vs].mean(), m.py[vs].mean()
        cav = delaunay_cavity(m, t, cx, cy)
        boundary = cavity_boundary(m, cav)
        # boundary edge count = cavity size + 2 for an interior point
        assert len(boundary) == len(cav) + 2

    def test_retriangulate_preserves_validity(self, small_mesh, rng):
        m = small_mesh.copy()
        t = int(m.live_slots()[10])
        vs = m.tri[t]
        cx, cy = float(m.px[vs].mean()), float(m.py[vs].mean())
        cav = delaunay_cavity(m, t, cx, cy)
        n_before = m.num_triangles
        start = m.n_tris
        m.ensure_tri_capacity(start + len(cav) + 4)
        slots = np.arange(start, start + len(cav) + 4)
        m.n_tris = start + len(cav) + 4
        info = retriangulate(m, cav, cx, cy, slots)
        m.validate(check_delaunay=True)
        assert m.num_triangles == n_before + 2  # interior insertion
        assert info.new_size == info.old_size + 2

    def test_retriangulate_insufficient_slots_raises(self, small_mesh, rng):
        m = small_mesh.copy()
        t = int(m.live_slots()[0])
        vs = m.tri[t]
        cx, cy = float(m.px[vs].mean()), float(m.py[vs].mean())
        cav = delaunay_cavity(m, t, cx, cy)
        before = m.copy()
        with pytest.raises(ValueError):
            retriangulate(m, cav, cx, cy, np.array([m.n_tris]))
        assert_unmodified(m, before)

    def test_retriangulate_not_star_shaped_raises(self, small_mesh):
        m = small_mesh.copy()
        t = int(m.live_slots()[0])
        vs = m.tri[t]
        # Reflect the centroid across edge 0: outside t, so the one-
        # triangle "cavity" [t] is not star-shaped around it.
        cx, cy = float(m.px[vs].mean()), float(m.py[vs].mean())
        mx = (m.px[vs[0]] + m.px[vs[1]]) / 2
        my = (m.py[vs[0]] + m.py[vs[1]]) / 2
        x, y = float(2 * mx - cx), float(2 * my - cy)
        start = m.n_tris
        m.ensure_tri_capacity(start + 4)
        before = m.copy()
        with pytest.raises(NotStarShaped):
            retriangulate(m, [t], x, y, np.arange(start, start + 4))
        assert_unmodified(m, before)


class TestMeshIO:
    def test_roundtrip(self, tmp_path, small_mesh):
        base = tmp_path / "mesh"
        save_mesh(base, small_mesh)
        loaded = load_mesh(base)
        assert loaded.num_triangles == small_mesh.num_triangles
        assert loaded.num_points == small_mesh.num_points
        loaded.validate()
        assert np.allclose(loaded.px[:loaded.n_pts],
                           small_mesh.px[:small_mesh.n_pts])

    def test_comments_ignored(self, tmp_path):
        node = tmp_path / "m.node"
        node.write_text("# hi\n3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n")
        ele = tmp_path / "m.ele"
        ele.write_text("1 3 0\n0 0 1 2  # tri\n")
        m = load_mesh(tmp_path / "m")
        assert m.num_triangles == 1

    def test_one_based_ids(self, tmp_path):
        node = tmp_path / "m.node"
        node.write_text("3 2 0 0\n1 0.0 0.0\n2 1.0 0.0\n3 0.0 1.0\n")
        ele = tmp_path / "m.ele"
        ele.write_text("1 3 0\n1 1 2 3\n")
        m = load_mesh(tmp_path / "m")
        assert m.num_triangles == 1
        m.validate()
