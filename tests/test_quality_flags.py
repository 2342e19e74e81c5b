"""Hypothesis tests: triangle quality flags are never stale.

The paper keeps a bad flag with each triangle beside the Section 6.2
arrays, and every writer that creates triangles must set it.  Writers
here score each batch of new triangles with one
:meth:`~repro.meshing.mesh.TriMesh.recompute_quality` pass rather than
one triangle at a time, and the DMR result digest ``(tri, px, py,
isdel)`` leaves ``isbad`` out, so these tests are what catch a missed
rescore: after each writer runs, every live slot's flag must equal
:func:`~repro.meshing.geometry.is_bad_many` over that slot's
coordinates.

``refine_gpu`` and the worklist baselines are also stopped early
(``max_rounds`` / ``max_points``), so the flags are checked on
partially refined meshes whose bad triangles still matter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dmr import DMRConfig, refine_galois, refine_gpu, refine_sequential
from repro.meshing import geometry as geo
from repro.meshing.edgeflip import legalize_gpu, random_legal_flips
from repro.meshing.generate import random_mesh
from repro.meshing.gpu_insert import gpu_insert_points

_settings = settings(max_examples=8, deadline=None)

seeds = st.integers(min_value=0, max_value=2**16)
rounds = st.integers(min_value=1, max_value=6)
sizes = st.integers(min_value=60, max_value=160)


def assert_flags_fresh(mesh) -> None:
    live = mesh.live_slots()
    want = geo.is_bad_many(*mesh.coords(live), mesh.min_angle_deg)
    stale = live[mesh.isbad[live] != want]
    assert stale.size == 0, f"stale isbad on live slots {stale[:10].tolist()}"


@_settings
@given(seed=seeds, n=sizes, max_rounds=rounds)
@pytest.mark.parametrize("layout_opt", [True, False])
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("conflict", ["3phase", "locks", "2phase-unsafe"])
def test_refine_gpu_flags_fresh(conflict, precision, layout_opt, seed, n,
                                max_rounds):
    cfg = DMRConfig(seed=seed, conflict=conflict, precision=precision,
                    layout_opt=layout_opt, max_rounds=max_rounds)
    assert_flags_fresh(refine_gpu(random_mesh(n, seed=seed), cfg).mesh)


@_settings
@given(seed=seeds, n=sizes, max_rounds=rounds)
def test_refine_gpu_on_demand_growth_flags_fresh(seed, n, max_rounds):
    cfg = DMRConfig(seed=seed, growth_factor=1.0, max_rounds=max_rounds)
    assert_flags_fresh(refine_gpu(random_mesh(n, seed=seed), cfg).mesh)


@_settings
@given(seed=seeds, n=sizes, max_points=st.integers(min_value=1, max_value=60))
def test_refine_sequential_flags_fresh(seed, n, max_points):
    res = refine_sequential(random_mesh(n, seed=seed), seed=seed,
                            max_points=max_points)
    assert_flags_fresh(res.mesh)


@_settings
@given(seed=seeds, n=sizes, max_rounds=rounds)
def test_refine_galois_flags_fresh(seed, n, max_rounds):
    res = refine_galois(random_mesh(n, seed=seed), threads=8, seed=seed,
                        max_rounds=max_rounds)
    assert_flags_fresh(res.mesh)


@_settings
@given(seed=seeds, n=sizes, n_points=st.integers(min_value=1, max_value=40))
def test_gpu_insert_points_flags_fresh(seed, n, n_points):
    rng = np.random.default_rng(seed)
    mesh = random_mesh(n, seed=seed)
    res = gpu_insert_points(mesh, rng.uniform(0.2, 0.8, n_points),
                            rng.uniform(0.2, 0.8, n_points), seed=seed)
    assert_flags_fresh(res.mesh)


@_settings
@given(seed=seeds, n=st.integers(min_value=2, max_value=400))
def test_random_mesh_flags_fresh(seed, n):
    assert_flags_fresh(random_mesh(n, seed=seed))


@_settings
@given(seed=seeds, n=sizes, flips=st.integers(min_value=1, max_value=30))
def test_legalize_gpu_flags_fresh(seed, n, flips):
    mesh = random_mesh(n, seed=seed)
    random_legal_flips(mesh, flips, seed=seed)
    assert_flags_fresh(mesh)
    assert_flags_fresh(legalize_gpu(mesh, seed=seed).mesh)
