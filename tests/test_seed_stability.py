"""Seed-stability regression: every driver, run twice with the same
seed — plain, under a tracer, and under the sanitizer — must produce
identical results and identical OpCounter totals.

This is the contract that makes the observability and analysis layers
safe to leave wired in: they draw nothing from the RNG and touch no
algorithm state, so opting in can never change what a run computes
(or what the cost model charges for it).  In tracer mode the trace must
also add up to the figure: the tracer's clock equals
``CostModel.gpu_time`` of the run's counter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import RaceDetector
from repro.core.counters import OpCounter
from repro.obs import Tracer
from repro.vgpu import CostModel

MODES = ["plain", "tracer", "sanitizer"]


def _kwargs(mode):
    if mode == "tracer":
        return {"tracer": Tracer()}
    if mode == "sanitizer":
        return {"sanitizer": RaceDetector()}
    return {}


def _totals(ctr: OpCounter) -> dict:
    return {name: (ks.launches, ks.items, ks.aborted, ks.word_reads,
                   ks.word_writes, ks.atomics, ks.barriers,
                   ks.issued_lane_steps, ks.useful_lane_steps)
            for name, ks in ctr}


def _assert_same_counters(a: OpCounter, b: OpCounter, label: str,
                          kwargs: dict):
    assert _totals(a) == _totals(b), label
    tracer = kwargs.get("tracer")
    if tracer is not None:
        assert tracer.now_us == pytest.approx(
            CostModel().gpu_time(b) * 1e6, rel=1e-9)


@pytest.mark.parametrize("mode", MODES)
def test_dmr_refine_stable(small_mesh, mode):
    from repro.dmr import refine_gpu

    kw = _kwargs(mode)
    runs = [refine_gpu(small_mesh.copy(), **_kwargs("plain")),
            refine_gpu(small_mesh.copy(), **kw)]
    a, b = runs
    assert a.points_added == b.points_added
    assert a.rounds == b.rounds
    assert a.mesh.n_tris == b.mesh.n_tris
    assert np.array_equal(a.mesh.tri[:a.mesh.n_tris],
                          b.mesh.tri[:b.mesh.n_tris])
    _assert_same_counters(a.counter, b.counter, mode, kw)


@pytest.mark.parametrize("mode", MODES)
def test_legalize_stable(mode):
    from repro.meshing.edgeflip import legalize_gpu, random_legal_flips
    from repro.meshing.generate import random_mesh

    def run(kw):
        mesh = random_mesh(300, seed=5)
        random_legal_flips(mesh, 25, seed=6)
        return legalize_gpu(mesh, seed=7, **kw), mesh

    kw = _kwargs(mode)
    (a, ma), (b, mb) = run(_kwargs("plain")), run(kw)
    assert a.flips == b.flips and a.rounds == b.rounds
    assert np.array_equal(ma.tri[:ma.n_tris], mb.tri[:mb.n_tris])
    _assert_same_counters(a.counter, b.counter, mode, kw)


@pytest.mark.parametrize("mode", MODES)
def test_gpu_insert_stable(mode):
    from repro.meshing.generate import random_mesh
    from repro.meshing.gpu_insert import gpu_insert_points

    rng = np.random.default_rng(13)
    x = rng.uniform(0.35, 0.6, 12)
    y = rng.uniform(0.35, 0.6, 12)

    def run(kw):
        mesh = random_mesh(200, seed=9)
        return gpu_insert_points(mesh, x, y, seed=10, **kw)

    kw = _kwargs(mode)
    a, b = run(_kwargs("plain")), run(kw)
    assert a.inserted == b.inserted and a.rounds == b.rounds
    assert np.array_equal(a.mesh.tri[:a.mesh.n_tris],
                          b.mesh.tri[:b.mesh.n_tris])
    _assert_same_counters(a.counter, b.counter, mode, kw)


@pytest.mark.parametrize("mode", MODES)
def test_boruvka_stable(mode):
    from repro.graphgen import random_graph
    from repro.mst import boruvka_gpu

    n, src, dst, w = random_graph(300, 1200, seed=21)
    a = boruvka_gpu(n, src, dst, w, **_kwargs("plain"))
    kw = _kwargs(mode)
    b = boruvka_gpu(n, src, dst, w, **kw)
    assert a.total_weight == b.total_weight
    assert np.array_equal(a.mst_edges, b.mst_edges)
    assert a.rounds == b.rounds
    _assert_same_counters(a.counter, b.counter, mode, kw)


@pytest.mark.parametrize("mode", MODES)
def test_andersen_stable(mode):
    from repro.pta import andersen_pull, generate_constraints

    cons = generate_constraints(120, 200, seed=3)
    a = andersen_pull(cons, **_kwargs("plain"))
    kw = _kwargs(mode)
    b = andersen_pull(cons, **kw)
    assert a.total_facts() == b.total_facts()
    assert a.pts.equal(b.pts)
    assert a.rounds == b.rounds and a.edges_added == b.edges_added
    _assert_same_counters(a.counter, b.counter, mode, kw)


@pytest.mark.parametrize("mode", MODES)
def test_solve_sp_stable(mode):
    from repro.satsp import random_ksat
    from repro.satsp.sp import SPConfig, solve_sp

    cnf = random_ksat(300, 3, ratio=3.2, seed=17)
    a = solve_sp(cnf, SPConfig(seed=17), **_kwargs("plain"))
    kw = _kwargs(mode)
    b = solve_sp(cnf, SPConfig(seed=17), **kw)
    assert a.status == b.status
    assert a.phases == b.phases
    assert a.total_iterations == b.total_iterations
    if a.assignment is None:
        assert b.assignment is None
    else:
        assert np.array_equal(a.assignment, b.assignment)
    _assert_same_counters(a.counter, b.counter, mode, kw)


# --------------------------------------------------------------------- #
# Serving: results must be independent of where a job runs (inline or   #
# in the gateway's worker processes, at any worker count) and of        #
# interruption (checkpoint/resume).                                     #
# --------------------------------------------------------------------- #

def _serve_batch():
    from repro.serve import JobSpec

    return [
        JobSpec(name="dmr", algorithm="dmr",
                params={"n_triangles": 120}, seed=31),
        JobSpec(name="mst", algorithm="mst",
                params={"num_nodes": 80, "num_edges": 260}, seed=31),
        JobSpec(name="engine", algorithm="engine",
                params={"num_nodes": 60}, seed=31),
    ]


def _serve_fingerprint(records):
    return {r.spec.name: (r.result.digest, r.result.counter_totals())
            for r in records}


def test_serve_results_stable_across_worker_counts():
    from repro.gateway import Gateway, GatewayConfig, TenantQuota
    from repro.serve import run_job

    base = _serve_fingerprint(run_job(s) for s in _serve_batch())
    for workers in (1, 2, 4):
        config = GatewayConfig(workers=workers, default_quota=TenantQuota())
        with Gateway(config) as gateway:
            handles = gateway.submit_batch("t", _serve_batch())
            records = [h.wait(300).record for h in handles]
        assert all(r is not None and r.ok for r in records), \
            f"workers={workers}"
        assert _serve_fingerprint(records) == base, f"workers={workers}"


def test_serve_checkpoint_resume_matches_uninterrupted(tmp_path):
    from repro.serve import FaultPlan, JobSpec, run_job

    kw = dict(algorithm="engine", params={"num_nodes": 90}, seed=47,
              retries=1, backoff_s=0.0, checkpoint_every=2)
    clean = run_job(JobSpec(name="clean", **kw))
    killed = run_job(
        JobSpec(name="killed", **kw,
                fault=FaultPlan(kind="kill", attempts=(1,), at_round=5)),
        checkpoint_dir=str(tmp_path))
    assert killed.ok and killed.resumed_round > 0
    assert killed.result.digest == clean.result.digest
    assert killed.result.counter_totals() == clean.result.counter_totals()
