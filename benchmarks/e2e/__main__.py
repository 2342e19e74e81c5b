"""``python -m benchmarks.e2e run | compare | layers | setup`` (see
README.md).

``run --workload NAME --seed N --seconds S --trace 0|1`` measures one
workload in this process and prints a table of every metric with its
unit and sample count, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reruns the workload with the same seed under span recording and
reports its per-layer metrics, writing the Chrome trace to
``--trace-dir``.  Without ``--workload`` every workload runs, each in
a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from . import HERE, ROOT
from .inline import DmrRefine, GraphSolve
from .served import GatewayJobs, GatewaySessions, LoadgenInvalid
from .spans import Recorder, breakdown, coverage, write_chrome
from .stats import Metric, iqr_frac, json_number, load_benchmark, spread

WORKLOADS = {cls.name: cls
             for cls in (DmrRefine, GraphSolve, GatewayJobs, GatewaySessions)}
DEFAULT_SEED = 1
TRACE_DIR = HERE / "traces"


def _metric_defs(bench: dict, trace: bool) -> list[dict]:
    return bench["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, *, trace: bool,
                 trace_dir: Path, bench: dict, **sizes) -> dict:
    """Measure one workload; ``sizes`` go to its constructor (the
    self-tests shrink the inputs this way).  A traced run reports no
    ``setup_s``, so it sets up once."""
    if trace:
        sizes.setdefault("setups", 1)
    workload = WORKLOADS[name](seed, **sizes)
    base = workload.measure(seconds)
    metrics = dict(base.metrics)
    attempted, failures = base.attempted, list(base.failures)
    traced_names: list[str] = []
    if trace:
        recorder = Recorder("client")
        traced = workload.measure(seconds, recorder=recorder)
        ops = breakdown(traced.spans)
        layer = workload.layer_metrics(traced.spans, ops)
        base_p50 = base.metrics["latency_p50_s"]
        traced_p50 = traced.metrics["latency_p50_s"]
        layer["trace.coverage_frac"] = Metric(coverage(ops), "fraction",
                                              len(ops))
        layer["trace.overhead_frac"] = Metric(
            traced_p50.value / base_p50.value - 1, "fraction",
            traced_p50.n)
        metrics.update(layer)
        traced_names = sorted(layer)
        attempted += traced.attempted
        failures += traced.failures
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_chrome(trace_dir / f"{name}.trace.json.gz", traced.spans,
                     traced.roles or {recorder.pid: "client"},
                     {"workload": name, "seed": seed, "seconds": seconds})
        for d in _metric_defs(bench, True):
            metrics.setdefault(d["name"], Metric(0.0, d["unit"], 0))
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": attempted,
              "failed": len(failures), "failures": failures[:20],
              "traced_metrics": traced_names,
              "metrics": {k: m.to_dict() for k, m in sorted(metrics.items())}}
    if trace:
        with open(trace_dir / f"{name}.metrics.json", "w") as fh:
            json.dump(record, fh, indent=1)
    return record


def result_line(record: dict, bench: dict) -> dict:
    """The run's last output line: exactly the metrics that
    ``BENCHMARK.json`` names for this mode, with their units."""
    out = {}
    for d in _metric_defs(bench, record["trace"]):
        got = record["metrics"].get(d["name"])
        if got is None:
            raise KeyError(f"{record['workload']} did not measure "
                           f"{d['name']}")
        if got["unit"] != d["unit"]:
            raise ValueError(f"{d['name']}: unit {got['unit']!r} != "
                             f"BENCHMARK.json {d['unit']!r}")
        out[d["name"]] = {"value": json_number(got["value"]),
                          "unit": d["unit"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": out}


def print_run(record: dict, bench: dict) -> None:
    listed = {d["name"] for d in _metric_defs(bench, record["trace"])}
    print(f"{record['workload']}  seed {record['seed']}  "
          f"window {record['seconds']:g}s  trace {int(record['trace'])}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    for why in record["failures"]:
        print(f"  FAIL {why}")
    for name, m in record["metrics"].items():
        mark = "*" if name in listed else " "
        tag = " (traced)" if name in record["traced_metrics"] else ""
        print(f" {mark} {name:<36} {m['value']:>14.6g} {m['unit']:<9} "
              f"n={m['n']}{tag}")
    print("  (* = reported to BENCHMARK.json for this mode)")
    print(json.dumps(result_line(record, bench)), flush=True)


def append_run(path: Path, record: dict, bench: dict) -> None:
    """Add ``record`` to the run set in ``path`` and refresh the set's
    per-workload spread of each end-to-end metric next to its bound."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    table: dict = {}
    for d in bench["end_to_end"]:
        for run in runs:
            if run["trace"] or d["name"] not in run["metrics"]:
                continue
            table.setdefault(run["workload"], {}).setdefault(
                d["name"], []).append(run["metrics"][d["name"]]["value"])
    summary = {}
    bounds = {d["name"]: d["bound"] for d in bench["end_to_end"]}
    for workload, by_metric in table.items():
        summary[workload] = {}
        for name, values in by_metric.items():
            q1, med, q3 = spread(values)
            summary[workload][name] = {
                "runs": len(values), "median": med, "q1": q1, "q3": q3,
                "iqr_frac": round(iqr_frac(values), 4),
                "bound": bounds[name]}
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps({"spread": summary, "runs": runs}, indent=1))
    os.replace(tmp, path)


def cmd_run(args) -> int:
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    if args.workload is None:
        worst = 0
        for name in WORKLOADS:
            cmd = [sys.executable, "-m", "benchmarks.e2e", "run",
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(args.trace),
                   "--trace-dir", str(args.trace_dir)]
            if args.out:
                cmd += ["--out", str(args.out)]
            worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
        return worst
    try:
        record = run_workload(args.workload, args.seed, seconds,
                              trace=bool(args.trace),
                              trace_dir=Path(args.trace_dir), bench=bench)
    except LoadgenInvalid as exc:
        print(f"invalid run, no metrics: {exc}", file=sys.stderr)
        return 3
    if args.out:
        append_run(Path(args.out), record, bench)
    print_run(record, bench)
    return 0 if record["failed"] == 0 else 1


def cmd_setup(args) -> int:
    """One cold set-up of an in-process workload, for a ``run`` that
    sets up several times: prints its time and host probe as JSON."""
    own = WORKLOADS[args.workload](args.seed).own_setup()
    print(json.dumps({"kind": own.kind, "seconds": own.seconds,
                      "probe": own.probe}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="measure one workload (or all)")
    p_run.add_argument("--workload", choices=sorted(WORKLOADS))
    p_run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_run.add_argument("--seconds", type=float, default=None,
                       help="measured window (default: BENCHMARK.json "
                            "run_seconds)")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       help="1: also run traced and report per-layer "
                            "metrics")
    p_run.add_argument("--trace-dir", default=str(TRACE_DIR),
                       help="where a traced run writes its Chrome trace "
                            "and metrics")
    p_run.add_argument("--out", help="append the run to this run-set "
                                     "JSON file")
    p_run.set_defaults(fn=cmd_run)

    p_setup = sub.add_parser("setup", help="time one set-up of an "
                                           "in-process workload")
    p_setup.add_argument("--workload", required=True,
                         choices=sorted(n for n, c in WORKLOADS.items()
                                        if hasattr(c, "own_setup")))
    p_setup.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_setup.set_defaults(fn=cmd_setup)

    from . import report

    p_cmp = sub.add_parser("compare", help="compare two run sets")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    p_cmp.add_argument("--claim", action="append", default=[],
                       metavar="WORKLOAD:METRIC",
                       help="a gain to test by the 9-in-10 pair rule")
    p_cmp.set_defaults(fn=report.cmd_compare)

    p_lay = sub.add_parser("layers", help="where each workload's time "
                                          "went, from a traced run")
    p_lay.add_argument("dir", nargs="?", default=str(TRACE_DIR))
    p_lay.set_defaults(fn=report.cmd_layers)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
