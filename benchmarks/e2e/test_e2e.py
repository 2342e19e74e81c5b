"""Self-tests of the end-to-end benchmark (``pytest benchmarks/e2e``).

The workloads run here at tiny sizes passed as constructor arguments;
the real sizes are the constructors' defaults.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from . import ROOT
from .__main__ import print_run, run_workload
from .common import Timed, kind_p50
from .host import PROBE_REF_S
from .inline import check_graph
from .report import verdict
from .served import (SESSIONS, LoadgenInvalid, Sample, offered_rate,
                     reply_failure)
from .spans import Span, assign_parents, breakdown, self_times
from .stats import INF, InsufficientSamples, load_benchmark, percentile

TINY = {
    "dmr-refine": {"n_meshes": 2, "n_triangles": 150, "exact_ops": 2,
                   "warmup_triangles": 60, "setups": 1},
    "graph-solve": {"templates": (
        ("sp", {"num_vars": 40, "k": 3, "ratio": 3.0}),
        ("pta", {"num_vars": 40, "num_constraints": 80}),
        ("mst", {"num_nodes": 60, "num_edges": 180}),
        ("engine", {"num_nodes": 30, "num_edges": 90})),
        "n_specs": 8, "exact_ops": 4, "setups": 1},
    "gateway-jobs": {"rate": 10.0, "setups": 1},
    "gateway-sessions": {
        "plans": (dataclasses.replace(SESSIONS[0], params={
                      "num_nodes": 200, "num_edges": 800}),
                  dataclasses.replace(SESSIONS[1], params={
                      "num_vars": 60, "num_constraints": 200})),
        "max_batches": 6, "check_batches": (3,), "setups": 1},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_unit_and_n(workload, trace, tmp_path,
                                              capsys):
    bench = load_benchmark()
    record = run_workload(workload, 3, 2.0, trace=bool(trace),
                          trace_dir=tmp_path, bench=bench, **TINY[workload])
    print_run(record, bench)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    defs = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in defs]
    for d in defs:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
        row = [ln.split() for ln in lines[:-1]
               if ln[3:].split(" ", 1)[0] == d["name"]]
        assert len(row) == 1, d["name"]
        mark, _, _, unit, n = row[0][:5]
        assert mark == "*" and unit == d["unit"] and n.startswith("n=")
    if trace:
        assert (tmp_path / f"{workload}.trace.json.gz").exists()
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.95


def test_tampered_mst_weight_fails_the_op():
    from repro.serve.jobs import JobSpec
    from repro.serve.pool import run_job

    spec = JobSpec(name="mst-0", algorithm="mst",
                   params={"num_nodes": 60, "num_edges": 180}, seed=5)
    record = run_job(spec)
    assert check_graph(spec, record, oracle=True) is None
    wrong = dict(record.result.summary,
                 total_weight=record.result.summary["total_weight"] + 1)
    record.result = dataclasses.replace(record.result, summary=wrong)
    assert "Kruskal" in check_graph(spec, record, oracle=True)


def test_flipped_digest_fails_the_op():
    good = "ab" * 32
    sample = Sample(op=0, due=0, send=0, done=1, status=200,
                    body={"status": "ok", "digest": good})
    assert reply_failure(sample, good) is None
    assert "digest" in reply_failure(sample, "cd" + good[2:])


def test_percentile_refuses_thin_tail_and_counts_failures_as_inf():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(199)), 95)
    assert percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert percentile([1.0, INF, 2.0, 3.0, INF], 50) == 3.0
    assert percentile([1.0, INF], 50) == INF
    with pytest.raises(InsufficientSamples):
        percentile([], 50)


def test_latency_is_the_host_adjusted_mean_of_template_medians():
    # Template "a" ran while the probe took twice its reference time, so
    # its ops count half; a failed op is +inf in its template.
    ref = PROBE_REF_S
    ops = [Timed("a", 0.2, 2 * ref), Timed("a", 0.4, 2 * ref),
           Timed("a", 0.6, 2 * ref), Timed("b", 0.3, ref),
           Timed("b", 0.5, ref), Timed("b", INF, ref)]
    assert kind_p50(ops).value == pytest.approx((0.2 + 0.5) / 2)
    assert kind_p50(ops, adjusted=False).value == pytest.approx(0.45)
    assert kind_p50(ops[:3] + [Timed("b", INF, ref)] * 2).value == INF


def test_setup_subcommand_times_one_cold_set_up():
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "setup", "--workload",
         "graph-solve", "--seed", "2"], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True)
    got = Timed(**json.loads(out.stdout.strip().splitlines()[-1]))
    assert got.kind == "setup" and 0 < got.seconds < 60 and got.probe > 0


def _span(name, layer, start, end, pid, sid, parent, op=0):
    return Span(name, layer, start, end, pid, 1, sid, parent, op)


def test_self_times_sum_to_the_parent_span():
    # A client root over an exchange; a server span (another process,
    # so its parent is the span that overlaps it most) with a
    # same-thread child and a worker span under it.
    spans = [
        _span("op", "op", 0, 100, 1, 1, 0),
        _span("exchange", "gateway.http", 0, 100, 1, 2, 1),
        _span("handle", "gateway.http", 10, 90, 2, 1, 0),
        _span("submit", "gateway", 12, 20, 2, 2, 1),
        _span("execute", "serve", 30, 70, 3, 1, 0),
        _span("digest", "serve", 60, 65, 3, 2, 1),
    ]
    parents = assign_parents(spans)
    assert parents[(2, 1)] == (1, 2)
    assert parents[(3, 1)] == (2, 1)
    selfs = self_times(spans, parents)
    assert selfs[(2, 1)] == 80 - 8 - 40
    assert sum(selfs.values()) == 100
    op = breakdown(spans)[0]
    assert op.latency_ns == 100 and op.root_self_ns == 0
    assert op.layer_self_ns == {"gateway.http": 52, "gateway": 8,
                                "serve": 40}
    assert op.layer_calls["serve"] == 1
    # The handler logs after the client has read the response: the 5 ns
    # past the exchange belong to no op.  Its journal append is still
    # running when the worker starts, but the handler overlaps the
    # worker more.  The append and the worker ran at once for 2 ns, and
    # each counts them.
    late = (spans[:2] + [spans[2]._replace(end=105)] + spans[3:]
            + [_span("append", "gateway.journal", 28, 32, 2, 3, 1)])
    parents = assign_parents(late)
    assert parents[(2, 1)] == (1, 2)
    assert parents[(3, 1)] == (2, 1)
    selfs = self_times(late, parents)
    assert selfs[(2, 1)] == 90 - 8 - 42
    assert selfs[(2, 3)] == 4 and selfs[(3, 1)] == 35
    assert sum(selfs.values()) == 100 + 2


def _open_loop(lags_ns, waits_ns=None):
    """Arrivals due every 100 ms, each sent ``wait + lag`` ns after it
    was due, having waited ``wait`` ns for a free connection."""
    waits_ns = waits_ns or [0] * len(lags_ns)
    due = [i * 100_000_000 for i in range(len(lags_ns))]
    return [Sample(op=i, due=d, send=d + wait + lag,
                   done=d + wait + lag + 1, ready=d + wait)
            for i, (d, lag, wait) in enumerate(zip(due, lags_ns, waits_ns))]


def test_open_loop_guard_refuses_a_late_client():
    with pytest.raises(LoadgenInvalid, match="late"):
        offered_rate(_open_loop([0] * 39 + [1_500_000_000]))
    # Falling 3% further behind with each op: never 1 s late, but the
    # offered rate misses the schedule's.
    with pytest.raises(LoadgenInvalid, match="offered"):
        offered_rate(_open_loop([i * 3_000_000 for i in range(40)]))
    # One op 56 ms late at the start of a short schedule is neither.
    assert offered_rate(_open_loop([56_000_000] + [0] * 14)) == \
        pytest.approx(10.0, rel=0.02)


def test_open_loop_guard_refuses_a_saturated_server():
    # The client keeps up, but 3 of 40 ops wait over 1 s for a free
    # connection: the open loop has turned into a closed one.
    waits = [0] * 37 + [1_200_000_000] * 3
    with pytest.raises(LoadgenInvalid, match="held"):
        offered_rate(_open_loop([0] * 40, waits))
    # One such op in 40 is a stall, not saturation.
    assert offered_rate(_open_loop([0] * 40, [0] * 39 + [1_200_000_000])) \
        == pytest.approx(10.0, rel=0.02)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdict(base, [x * 1.2 for x in base], 0.1, True, 0, 10) == \
        "worse"
    assert verdict(base, [x * 0.8 for x in base], 0.1, True, 10, 10) == \
        "better"
    assert verdict(base, base, 0.1, True, 0, 10) == "unchanged"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.5]
    assert verdict(noisy, noisy, 0.1, True, 0, 5) == "unresolved"
    assert verdict(noisy, [0.5] * 5, 0.1, True, 5, 5) == "better"
