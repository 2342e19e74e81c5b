"""Unit tests for the :mod:`repro.obs` tracing subsystem: span
nesting/ordering on the modeled clock, the clock adding up to the
counters' ``CostModel.gpu_time``, gauge sampling, the Chrome
trace_event exporter and its schema validator, the metrics dict, and
the ``BENCH_*.json`` round-trip."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import OpCounter
from repro.obs import (BENCH_SCHEMA, Tracer, TraceSchemaError, chrome_trace,
                       metrics_dict, read_bench, validate_chrome_trace,
                       write_bench, write_chrome_trace)
from repro.vgpu import CostModel, KernelLauncher, LaunchConfig
from repro.vgpu.instrument import (FAULTS, SANITIZER, TRACER, trace_gauge,
                                   trace_span)


def _launch(tr: Tracer, name: str = "k", counter: OpCounter | None = None,
            **kw):
    """Record one launch on ``counter`` (a fresh one by default) while
    ``tr`` is active."""
    kw.setdefault("items", 64)
    kw.setdefault("word_reads", 256)
    kw.setdefault("word_writes", 64)
    with tr.activate():
        (counter if counter is not None else OpCounter()).launch(name, **kw)


# --------------------------------------------------------------------- #
# Span mechanics
# --------------------------------------------------------------------- #

def test_span_nesting_and_ordering():
    tr = Tracer()
    with tr.span("outer", cat="driver"):
        _launch(tr, "a")
        with tr.span("inner", cat="iteration"):
            _launch(tr, "b")
    ev = tr.closed_events()
    names = [e.name for e in ev]
    assert names.index("outer") < names.index("inner")
    outer = next(e for e in ev if e.name == "outer")
    inner = next(e for e in ev if e.name == "inner")
    assert outer.ts <= inner.ts
    assert outer.ts + outer.dur >= inner.ts + inner.dur


def test_launch_advances_modeled_clock():
    tr = Tracer()
    _launch(tr)
    light = tr.now_us
    assert light > 0
    _launch(tr, word_reads=1 << 20)  # heavier kernel, larger advance
    assert tr.now_us - light > light


def test_more_work_costs_more():
    tr = Tracer()
    _launch(tr, "cheap", items=32, word_reads=32, word_writes=32)
    _launch(tr, "dear", items=32_000, word_reads=32_000,
            word_writes=32_000, atomics=100, barriers=2)
    cheap, dear = (e.dur for e in tr.events)
    assert 0 < cheap < dear


def test_resumed_counter_is_priced_whole_and_merge_is_silent():
    cm = CostModel()
    resumed = OpCounter()
    resumed.launch("k", items=500, word_reads=9000, barriers=4)
    resumed.bump("reallocs", 2)
    tr = Tracer()
    _launch(tr, "k", counter=resumed)
    assert tr.now_us == pytest.approx(cm.gpu_time(resumed) * 1e6,
                                      rel=1e-12)
    before = tr.now_us
    with tr.activate():
        resumed.merge(resumed.copy())
    assert tr.now_us == before and len(tr.events) == 1


# One or two counters; their configuration scalars are recorded before
# the first launch, as every driver does.
_CONFIG = st.fixed_dictionaries({}, optional={
    "barrier_kind": st.sampled_from([0.0, 1.0, 2.0]),
    "cfg_blocks": st.sampled_from([14.0, 112.0, 224.0]),
    "cfg_tpb": st.sampled_from([32.0, 64.0, 256.0]),
    "fp_scale": st.sampled_from([0.5, 1.0]),
})
_LAUNCH = st.fixed_dictionaries({
    "items": st.integers(0, 5_000),
    "aborted": st.integers(0, 50),
    "word_reads": st.integers(0, 100_000),
    "word_writes": st.integers(0, 50_000),
    "atomics": st.integers(0, 2_000),
    "barriers": st.integers(0, 6),
    "count_launch": st.booleans(),
})
_BUMP = st.tuples(st.sampled_from(
    ["h2d_words", "d2h_words", "xfer_calls", "reallocs", "realloc_words",
     "kernel_mallocs", "pta.chunks_malloced", "unpriced.tally"]),
    st.integers(0, 10_000))
_OPS = st.lists(st.tuples(st.integers(0, 1),
                          st.one_of(_LAUNCH.map(lambda d: ("launch", d)),
                                    _BUMP.map(lambda b: ("bump", b)))),
                min_size=1, max_size=25)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(configs=st.lists(_CONFIG, min_size=1, max_size=2), ops=_OPS)
def test_clock_equals_sum_of_gpu_time(configs, ops):
    counters = []
    for cfg in configs:
        ctr = OpCounter()
        ctr.scalars.update(cfg)
        counters.append(ctr)
    tr = Tracer()
    with tr.activate():
        for which, (kind, payload) in ops:
            ctr = counters[which % len(counters)]
            if kind == "launch":
                ctr.launch("k", **payload)
            else:
                ctr.bump(*payload)
    cm = CostModel()
    want = 1e6 * sum(cm.gpu_time(c) for c in counters)
    assert tr.now_us == pytest.approx(want, rel=1e-9, abs=1e-9)
    # One event per report: launches are kernel launches, bumps host
    # costs (zero-length for a tally the cost model does not price).
    assert [e.cat for e in tr.events] == [
        "kernel.launch" if kind == "launch" else "host" for _, (kind, _) in ops]
    assert all(e.dur >= 0 for e in tr.events)
    validate_chrome_trace(chrome_trace(tr))


def test_open_spans_are_synthesized():
    tr = Tracer()
    tr.on_span_begin("never-closed", cat="driver")
    _launch(tr)
    ev = tr.closed_events()
    open_span = next(e for e in ev if e.name == "never-closed")
    assert open_span.dur == pytest.approx(tr.now_us - open_span.ts)


def test_gauge_sampling_tracks_clock():
    tr = Tracer()
    tr.on_gauge("g", 1)
    _launch(tr)
    tr.on_gauge("g", 5)
    samples = tr.gauges["g"]
    assert [v for _, v in samples] == [1, 5]
    assert samples[0][0] < samples[1][0]


def test_geometry_emits_gauges():
    tr = Tracer()
    with tr.activate():
        KernelLauncher(OpCounter(), LaunchConfig(28, 128))
    assert tr.gauges["launch.blocks"][-1][1] == 28
    assert tr.gauges["launch.tpb"][-1][1] == 128


def test_metrics_dict_contents():
    tr = Tracer()
    with tr.span("outer", cat="driver"):
        _launch(tr, "k1")
        _launch(tr, "k1")
        _launch(tr, "k2", aborted=3)
    tr.on_gauge("occ", 7)
    with tr.activate():
        OpCounter().bump("xfer_calls")
    m = tr.metrics()
    assert m["modeled_us"] == pytest.approx(tr.now_us)
    assert m["span.count"] == 1          # launches are not spans
    assert m["launch.k1.count"] == 2
    assert m["launch.k2.aborted"] == 3
    assert m["launch.k1.us"] > 0
    assert m["host.xfer_calls.count"] == 1 and m["host.xfer_calls.us"] > 0
    priced = sum(v for k, v in m.items()
                 if k.startswith(("launch.", "host.")) and k.endswith(".us"))
    assert priced == pytest.approx(m["modeled_us"])
    assert m["gauge.occ.last"] == 7 and m["gauge.occ.n"] == 1
    assert metrics_dict(tr) == m


# --------------------------------------------------------------------- #
# Hook-slot behaviour
# --------------------------------------------------------------------- #

def test_module_hooks_are_noops_when_inactive():
    assert TRACER.current is None
    trace_gauge("g", 1)                 # must not raise
    with trace_span("s", cat="driver") as s:
        assert s is None


def test_activate_installs_and_restores():
    tr = Tracer()
    with tr.activate():
        assert TRACER.current is tr
    assert TRACER.current is None


@pytest.mark.parametrize(
    "slot", [SANITIZER, TRACER, FAULTS], ids=["sanitizer", "tracer", "faults"])
def test_hook_slot_contract(slot):
    outer, inner = object(), object()
    assert slot.current is None
    with slot.maybe_activate(None) as got:
        assert got is None and slot.current is None
    with slot.activate(outer) as got:
        assert got is outer and slot.current is outer
        with slot.maybe_activate(None):
            assert slot.current is outer
        with slot.maybe_activate(inner):
            assert slot.current is inner
        assert slot.current is outer
        with pytest.raises(RuntimeError, match="boom"):
            with slot.activate(inner):
                assert slot.current is inner
                raise RuntimeError("boom")
        assert slot.current is outer
    assert slot.current is None


# --------------------------------------------------------------------- #
# Chrome trace exporter + schema
# --------------------------------------------------------------------- #

def _traced_tracer() -> Tracer:
    tr = Tracer()
    with tr.span("drv", cat="driver"):
        for i in range(3):
            with tr.span("it", cat="iteration", round=i):
                _launch(tr, "k")
                tr.on_gauge("occ", i)
    return tr


def test_chrome_trace_validates():
    doc = chrome_trace(_traced_tracer())
    n = validate_chrome_trace(doc)
    assert n == len(doc["traceEvents"])


def test_chrome_trace_structure():
    doc = chrome_trace(_traced_tracer())
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "C"} <= phs
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["modeled_us"] > 0
    assert "Tesla" in doc["otherData"]["spec"]
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert all("value" in e["args"] for e in counters)


def test_write_chrome_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, _traced_tracer())
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) > 0


@pytest.mark.parametrize("doc", [
    {"traceEvents": "nope"},
    {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]},
    {"traceEvents": [{"ph": "X", "name": "", "pid": 1, "tid": 1,
                      "ts": 0, "dur": 1, "args": {}}]},
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                      "ts": 0, "dur": -2.0, "args": {}}]},
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                      "ts": -1, "dur": 1, "args": {}}]},
    {"traceEvents": [{"ph": "C", "name": "g", "pid": 1, "tid": 1,
                      "ts": 0, "args": {}}]},
    {"traceEvents": [{"ph": "C", "name": "g", "pid": 1, "tid": 1,
                      "ts": 0, "args": {"v": "NaNish"}}]},
    {"traceEvents": [{"ph": "X", "name": "x", "tid": 1,
                      "ts": 0, "dur": 1, "args": {}}]},
])
def test_schema_rejects_malformed(doc):
    with pytest.raises(TraceSchemaError):
        validate_chrome_trace(doc)


def test_schema_rejects_improper_nesting():
    # Two spans that overlap without containment cannot come from a
    # well-formed span stack.
    doc = {"traceEvents": [
        {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0,
         "dur": 10.0, "args": {}},
        {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 5.0,
         "dur": 10.0, "args": {}},
    ]}
    with pytest.raises(TraceSchemaError):
        validate_chrome_trace(doc)


def test_schema_accepts_proper_nesting_and_siblings():
    doc = {"traceEvents": [
        {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0,
         "dur": 10.0, "args": {}},
        {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 1.0,
         "dur": 4.0, "args": {}},
        {"ph": "X", "name": "c", "pid": 1, "tid": 1, "ts": 6.0,
         "dur": 4.0, "args": {}},
    ]}
    assert validate_chrome_trace(doc) == 3


# --------------------------------------------------------------------- #
# BENCH_*.json round-trip
# --------------------------------------------------------------------- #

def test_bench_write_read_roundtrip(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    runs = [{"n": 1, "gpu_s": 0.5}, {"n": 2, "gpu_s": 1.0}]
    write_bench(path, "fig0", runs)
    doc = read_bench(path)
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["figure"] == "fig0"
    assert doc["runs"] == runs


def test_bench_append_extends(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    write_bench(path, "fig0", [{"n": 1}])
    write_bench(path, "fig0", [{"n": 2}], append=True)
    assert [r["n"] for r in read_bench(path)["runs"]] == [1, 2]


def test_bench_no_append_overwrites(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    write_bench(path, "fig0", [{"n": 1}])
    write_bench(path, "fig0", [{"n": 2}], append=False)
    assert [r["n"] for r in read_bench(path)["runs"]] == [2]


def test_bench_append_onto_missing_or_corrupt(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    write_bench(path, "fig0", [{"n": 1}], append=True)  # no prior file
    assert [r["n"] for r in read_bench(path)["runs"]] == [1]
    path.write_text("{corrupt")
    write_bench(path, "fig0", [{"n": 2}], append=True)
    assert [r["n"] for r in read_bench(path)["runs"]] == [2]


def test_bench_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "BENCH_fig0.json"
    path.write_text(json.dumps({"schema": "other/9", "figure": "fig0",
                                "runs": []}))
    with pytest.raises(ValueError):
        read_bench(path)


# --------------------------------------------------------------------- #
# End-to-end: a traced driver produces a valid, gauge-bearing trace
# --------------------------------------------------------------------- #

def test_traced_driver_end_to_end(small_mesh):
    from repro.dmr import refine_gpu

    tr = Tracer()
    res = refine_gpu(small_mesh.copy(), tracer=tr)
    doc = chrome_trace(tr)
    validate_chrome_trace(doc)
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"driver", "iteration", "kernel.launch", "host"} <= cats
    launches = {e["name"] for e in doc["traceEvents"]
                if e.get("cat") == "kernel.launch"}
    assert "dmr.refine" in launches
    m = tr.metrics()
    assert m["modeled_us"] == pytest.approx(
        CostModel().gpu_time(res.counter) * 1e6, rel=1e-9)
    assert any(k.startswith("gauge.dmr.bad_pending") for k in m)
    assert any(k.startswith("gauge.conflict.abort_rate") for k in m)


def test_tracer_draws_no_rng(small_mesh):
    """Tracing must not consume RNG draws: the traced and untraced runs
    of the same seeded driver produce byte-identical meshes."""
    from repro.dmr import refine_gpu

    plain = small_mesh.copy()
    traced = small_mesh.copy()
    refine_gpu(plain)
    refine_gpu(traced, tracer=Tracer())
    assert plain.n_tris == traced.n_tris
    assert np.array_equal(plain.tri[:plain.n_tris],
                          traced.tri[:traced.n_tris])
