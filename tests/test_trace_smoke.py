"""Trace smoke tests (``pytest --trace-smoke``; the CI trace step).

One *small* traced run per algorithm driver: each test runs the driver
with a :class:`repro.obs.Tracer`, exports the Chrome trace to disk,
re-loads it, validates it against the schema, and checks that the trace
adds up to ``CostModel.gpu_time`` of the run's counter.  These double as
the end-to-end check that every driver reports to a tracer installed
with ``Tracer.activate()``."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import Tracer, validate_chrome_trace, write_chrome_trace
from repro.vgpu import CostModel

pytestmark = pytest.mark.trace_smoke


def _export_and_validate(tmp_path, tracer, name, counter,
                         expect_cats=("driver", "iteration")):
    path = tmp_path / f"{name}.json"
    write_chrome_trace(path, tracer)
    doc = json.loads(path.read_text())
    n = validate_chrome_trace(doc)
    assert n > 0
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"kernel.launch", *expect_cats} <= cats, cats
    assert tracer.metrics()["modeled_us"] == pytest.approx(
        CostModel().gpu_time(counter) * 1e6, rel=1e-9)
    return doc


def test_trace_smoke_dmr(tmp_path):
    from repro.dmr import refine_gpu
    from repro.meshing.generate import random_mesh

    tr = Tracer()
    with tr.activate():
        res = refine_gpu(random_mesh(300, seed=1))
    assert res.converged
    doc = _export_and_validate(tmp_path, tr, "dmr", res.counter,
                               ("driver", "iteration", "host"))
    launches = {e["name"] for e in doc["traceEvents"]
                if e.get("cat") == "kernel.launch"}
    assert "dmr.refine" in launches


def test_trace_smoke_edgeflip(tmp_path):
    from repro.meshing.edgeflip import legalize_gpu, random_legal_flips
    from repro.meshing.generate import random_mesh

    mesh = random_mesh(200, seed=2)
    random_legal_flips(mesh, 15, seed=3)
    tr = Tracer()
    with tr.activate():
        res = legalize_gpu(mesh, seed=4)
    _export_and_validate(tmp_path, tr, "edgeflip", res.counter)


def test_trace_smoke_insert(tmp_path):
    from repro.meshing.generate import random_mesh
    from repro.meshing.gpu_insert import gpu_insert_points

    rng = np.random.default_rng(5)
    tr = Tracer()
    with tr.activate():
        res = gpu_insert_points(random_mesh(150, seed=5),
                                rng.uniform(0.4, 0.6, 6),
                                rng.uniform(0.4, 0.6, 6), seed=6)
    assert res.inserted == 6
    doc = _export_and_validate(tmp_path, tr, "insert", res.counter)
    launches = {e["name"] for e in doc["traceEvents"]
                if e.get("cat") == "kernel.launch"}
    assert "insert.round" in launches


def test_trace_smoke_mst(tmp_path):
    from repro.graphgen import random_graph
    from repro.mst import boruvka_gpu

    n, src, dst, w = random_graph(200, 800, seed=7)
    tr = Tracer()
    with tr.activate():
        res = boruvka_gpu(n, src, dst, w)
    _export_and_validate(tmp_path, tr, "mst", res.counter)


def test_trace_smoke_pta(tmp_path):
    from repro.pta import andersen_pull, generate_constraints

    tr = Tracer()
    with tr.activate():
        res = andersen_pull(generate_constraints(80, 140, seed=8))
    _export_and_validate(tmp_path, tr, "pta", res.counter)


def test_trace_smoke_sp(tmp_path):
    from repro.satsp import random_ksat
    from repro.satsp.sp import SPConfig, solve_sp

    tr = Tracer()
    with tr.activate():
        res = solve_sp(random_ksat(250, 3, seed=9),
                       SPConfig(seed=9, max_iters=60, max_phases=5,
                                require_convergence=False))
    _export_and_validate(tmp_path, tr, "sp", res.counter, ("driver",))
