"""Differential tests: every GPU driver against a sequential oracle,
for a fixed seed, across the paper's addition (Section 7.1) and
deletion (Section 7.2) strategies.

The GPU drivers schedule work very differently from their oracles, so
the comparisons are on *semantic* outputs — MST weight, points-to
facts, satisfying assignments, Delaunay/quality invariants — not on
execution traces.  Storage strategies, by contrast, must be invisible:
swapping how arrays grow or how dead slots are reclaimed may never
change a result, and several tests pin that down exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.addition import (HostOnly, KernelHost, KernelOnly,
                                 PreAllocation)
from repro.core.deletion import (ExplicitDeletion, MarkingDeletion,
                                 RecycleDeletion)
from repro.errors import OutOfDeviceMemory
from repro.graphgen import grid2d, random_graph, rmat
from repro.mst import boruvka_gpu
from repro.mst.kruskal import kruskal
from repro.pta import andersen_pull, andersen_serial, generate_constraints
from repro.satsp import random_ksat
from repro.satsp.sp import SPConfig, solve_sp

# --------------------------------------------------------------------- #
# DMR: GPU refinement vs the sequential oracle's invariants
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("growth_factor", [1.0, 1.5])
def test_dmr_refines_to_no_bad_triangles(small_mesh, growth_factor):
    from repro.dmr import DMRConfig, refine_gpu

    res = refine_gpu(small_mesh.copy(),
                     DMRConfig(growth_factor=growth_factor))
    assert res.converged
    assert res.mesh.bad_slots().size == 0
    res.mesh.validate()


def test_dmr_growth_factor_is_storage_only(small_mesh):
    """Host-Only on-demand (factor 1.0) vs amortized (1.5) growth must
    produce byte-identical meshes: addition strategy is storage policy,
    not algorithm."""
    from repro.dmr import DMRConfig, refine_gpu

    ra = refine_gpu(small_mesh.copy(), DMRConfig(growth_factor=1.0))
    rb = refine_gpu(small_mesh.copy(), DMRConfig(growth_factor=1.5))
    a, b = ra.mesh, rb.mesh
    assert ra.points_added == rb.points_added
    assert a.n_tris == b.n_tris
    assert np.array_equal(a.tri[:a.n_tris], b.tri[:b.n_tris])
    assert np.array_equal(a.isdel[:a.n_tris], b.isdel[:b.n_tris])


@pytest.mark.parametrize("local_worklists", [True, False])
def test_dmr_worklist_choice_preserves_semantics(small_mesh, local_worklists):
    from repro.dmr import DMRConfig, refine_gpu

    res = refine_gpu(small_mesh.copy(),
                     DMRConfig(local_worklists=local_worklists))
    assert res.converged
    assert res.mesh.bad_slots().size == 0
    res.mesh.validate()


def test_dmr_matches_sequential_quality(small_mesh):
    """Both the GPU driver and the sequential oracle end Delaunay-refined:
    no bad triangles, structurally valid, and both strictly grew the mesh."""
    from repro.dmr import refine_gpu, refine_sequential

    seq_mesh = small_mesh.copy()
    gpu = refine_gpu(small_mesh.copy())
    seq = refine_sequential(seq_mesh)
    assert gpu.converged and seq_mesh.bad_slots().size == 0
    gpu.mesh.validate()
    seq_mesh.validate()
    assert gpu.points_added > 0 and seq.points_added > 0
    assert gpu.mesh.num_triangles > small_mesh.num_triangles
    assert seq_mesh.num_triangles > small_mesh.num_triangles


# --------------------------------------------------------------------- #
# MST: Boruvka GPU weight == Kruskal weight
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("graph", ["random", "grid", "rmat"])
def test_boruvka_matches_kruskal(graph):
    if graph == "random":
        n, src, dst, w = random_graph(400, 1600, seed=3)
    elif graph == "grid":
        n, src, dst, w = grid2d(20, seed=4)
    else:
        n, src, dst, w = rmat(9, 6, seed=5)
    gpu = boruvka_gpu(n, src, dst, w)
    oracle = kruskal(n, src, dst, w)
    assert gpu.total_weight == oracle.total_weight


def test_boruvka_forest_on_disconnected_input():
    # Two disjoint cliques: the result is a 2-component forest whose
    # weight still matches Kruskal's.
    n = 8
    src, dst, w = [], [], []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                src.append(base + i)
                dst.append(base + j)
                w.append(1 + base + i + j)
    src = np.asarray(src)
    dst = np.asarray(dst)
    w = np.asarray(w)
    gpu = boruvka_gpu(n, src, dst, w)
    oracle = kruskal(n, src, dst, w)
    assert gpu.total_weight == oracle.total_weight
    assert gpu.num_components == 2


# --------------------------------------------------------------------- #
# PTA: pull-based GPU analysis == serial worklist fixed point,
# across Kernel-Only chunk sizes
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("chunk_size", [16, 256, 1024])
def test_andersen_pull_matches_serial(chunk_size):
    cons = generate_constraints(150, 260, seed=2)
    gpu = andersen_pull(cons, chunk_size=chunk_size)
    ser = andersen_serial(cons)
    assert gpu.total_facts() == ser.total_facts()
    for v in range(cons.num_vars):
        assert np.array_equal(np.sort(gpu.points_to(v)),
                              np.sort(ser.points_to(v))), v


def test_andersen_chunk_size_is_storage_only():
    cons = generate_constraints(120, 200, seed=6)
    small = andersen_pull(cons, chunk_size=8)
    large = andersen_pull(cons, chunk_size=2048)
    assert small.total_facts() == large.total_facts()
    assert small.pts.equal(large.pts)


# --------------------------------------------------------------------- #
# SP: a SAT verdict's assignment must satisfy the formula
# --------------------------------------------------------------------- #

def test_sp_assignment_satisfies_formula():
    cnf = random_ksat(400, 3, ratio=3.0, seed=11)
    res = solve_sp(cnf, SPConfig(seed=11))
    assert res.status == "SAT"
    assert res.assignment is not None
    assert cnf.check(res.assignment)


def test_sp_cached_flag_does_not_change_verdict():
    """cached= only reprices the modeled memory traffic (Section 8.2);
    the numerics — and therefore the verdict — are identical."""
    cnf = random_ksat(300, 3, ratio=3.0, seed=12)
    a = solve_sp(cnf, SPConfig(seed=12, cached=True))
    b = solve_sp(cnf, SPConfig(seed=12, cached=False))
    assert a.status == b.status == "SAT"
    assert np.array_equal(a.assignment, b.assignment)


# --------------------------------------------------------------------- #
# Addition strategies: same logical result, different storage costs
# --------------------------------------------------------------------- #

def _grown(strategy, payload):
    arr = strategy.alloc.malloc((payload.size,), dtype=np.int64)
    arr[:] = payload
    for target in (payload.size + 5, payload.size + 40):
        arr = strategy.ensure(arr, target, fill=-1)
    return arr


def test_addition_strategies_preserve_content():
    payload = np.arange(50, dtype=np.int64) * 3
    grown = {
        "host": _grown(HostOnly(1.5), payload),
        "kernel-host": _grown(KernelHost(1.5), payload),
        "on-demand": _grown(HostOnly(1.0), payload),
    }
    for name, arr in grown.items():
        assert arr.shape[0] >= payload.size + 40, name
        assert np.array_equal(arr[:payload.size], payload), name
    pre = PreAllocation(200)
    arr = pre.allocate()
    arr[:payload.size] = payload
    out = pre.ensure(arr, payload.size + 40)
    assert out is arr  # never moves
    assert np.array_equal(out[:payload.size], payload)


def test_preallocation_exhaustion_raises():
    pre = PreAllocation(16)
    arr = pre.allocate()
    with pytest.raises(OutOfDeviceMemory):
        pre.ensure(arr, 17)


def test_kernel_host_reads_one_word_back():
    host = HostOnly(1.5)
    kh = KernelHost(1.5)
    a = _grown(host, np.arange(64, dtype=np.int64))
    b = _grown(kh, np.arange(64, dtype=np.int64))
    assert np.array_equal(a[:64], b[:64])
    assert host.stats.reallocs == kh.stats.reallocs
    assert kh.stats.host_words < host.stats.host_words
    assert kh.stats.host_words == kh.stats.host_round_trips


def test_kernel_only_stores_same_set_as_flat_growth():
    ko = KernelOnly(chunk_size=8)
    lst = ko.chunks.new_list()
    rng = np.random.default_rng(0)
    values = rng.integers(0, 100, size=120)
    for lo in range(0, values.size, 30):
        ko.chunks.insert_many(lst, values[lo:lo + 30])
    assert np.array_equal(np.sort(lst.to_array()), np.unique(values))
    with pytest.raises(TypeError):
        ko.ensure(np.zeros(4, dtype=np.int64), 8)


# --------------------------------------------------------------------- #
# Deletion strategies: identical live sets under one delete sequence
# --------------------------------------------------------------------- #

def test_deletion_strategies_agree_on_live_set():
    cap = 64
    rng = np.random.default_rng(3)
    marking = MarkingDeletion(cap)
    explicit = ExplicitDeletion(cap)
    recycle = RecycleDeletion(cap)
    for _ in range(5):
        ids = rng.choice(cap, size=7, replace=False)
        for strat in (marking, explicit, recycle):
            strat.delete(ids)
    assert np.array_equal(marking.live_ids(), explicit.live_ids())
    assert np.array_equal(marking.live_ids(), recycle.live_ids())
    assert marking.num_deleted == explicit.num_deleted == recycle.num_deleted


def test_explicit_compaction_maps_live_slots():
    strat = ExplicitDeletion(10, compact_threshold=0.3)
    strat.delete([1, 3, 5, 7])
    assert strat.should_compact()
    live_before = strat.live_ids()
    n_live, old_to_new = strat.compact()
    assert n_live == live_before.size
    assert np.array_equal(np.sort(old_to_new[live_before]),
                          np.arange(n_live))
    assert np.all(old_to_new[[1, 3, 5, 7]] == -1)
    assert strat.dead_fraction() == 0.0


def test_recycle_hands_back_deleted_slots_first():
    strat = RecycleDeletion(16)
    strat.delete([2, 9, 11])
    slots, new_tail = strat.allocate(5, tail_start=16)
    assert set([2, 9, 11]) <= set(slots.tolist())
    assert new_tail == 18  # only 2 fresh slots needed
    assert not strat.is_deleted(slots[:3]).any()
