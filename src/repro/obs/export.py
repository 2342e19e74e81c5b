"""Exporters: Chrome ``trace_event`` JSON, flat metrics, BENCH trajectories.

Three consumers, three formats:

* :func:`chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and Perfetto.  Spans become complete ("X")
  events, gauges become counter ("C") events, and one metadata ("M")
  event names the virtual process.
* :func:`metrics_dict` — a flat ``{str: float}`` dict for assertions and
  quick printing (delegates to :meth:`Tracer.metrics`).
* :func:`write_bench` / :func:`read_bench` — the ``BENCH_<figure>.json``
  perf-trajectory files at the repository top level, appended to by
  ``benchmarks/harness.py`` so successive PRs build a history.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tracer import Tracer

__all__ = ["chrome_trace", "write_chrome_trace", "metrics_dict",
           "write_bench", "read_bench", "BENCH_SCHEMA"]

#: Schema tag stamped into every BENCH file (bump on format changes).
BENCH_SCHEMA = "repro.bench/1"

#: pid/tid for the single virtual device the trace describes.
_PID = 1
_TID = 1


def chrome_trace(tracer: Tracer) -> dict:
    """Serialize ``tracer`` to a Chrome trace_event JSON object."""
    events: list[dict] = [
        {"ph": "M", "pid": _PID, "tid": _TID, "ts": 0,
         "name": "process_name", "args": {"name": "vGPU (modeled)"}},
        {"ph": "M", "pid": _PID, "tid": _TID, "ts": 0,
         "name": "thread_name", "args": {"name": "launch timeline"}},
    ]
    for span in tracer.closed_events():
        events.append({
            "ph": "X", "pid": _PID, "tid": _TID,
            "name": span.name, "cat": span.cat,
            "ts": span.ts, "dur": span.dur if span.dur is not None else 0.0,
            "args": span.args,
        })
    for name, samples in sorted(tracer.gauges.items()):
        for ts, value in samples:
            events.append({
                "ph": "C", "pid": _PID, "tid": _TID,
                "name": name, "cat": "gauge",
                "ts": ts, "args": {"value": value},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"modeled_us": tracer.now_us,
                          "spec": tracer.cost.gpu.name}}


def write_chrome_trace(path: str | Path, tracer: Tracer) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer), indent=1) + "\n")
    return path


def metrics_dict(tracer: Tracer) -> dict[str, float]:
    """Flat metrics for assertions; see :meth:`Tracer.metrics`."""
    return tracer.metrics()


# ---------------------------------------------------------------------- #
# BENCH_<figure>.json trajectory files                                   #
# ---------------------------------------------------------------------- #

def write_bench(path: str | Path, figure: str, runs: list[dict], *,
                append: bool = False, dedupe: bool = False) -> Path:
    """Write (or extend) a ``BENCH_<figure>.json`` trajectory file.

    Each element of ``runs`` is one measurement row — a flat JSON-able
    dict, typically ``{"input": ..., "modeled_gpu_s": ...}``.  With
    ``append=True`` an existing file's runs are kept and the new ones
    added after them, so the file accumulates a history across commits.

    With ``dedupe=True`` (append mode only), prior rows that share a
    ``(scale, seed, config)`` key with any new row are dropped first:
    re-running the suite at an already-recorded configuration *replaces*
    that configuration's batch instead of appending duplicate rows
    forever — the trajectory stays one batch per measured configuration.
    ``config`` participates so that several bench scripts can append
    distinct row families to one figure file (e.g. ``BENCH_serve.json``
    carries ``pool`` rows from the throughput bench and
    ``gateway`` rows from the load bench) without clobbering each other.
    """
    path = Path(path)
    existing: list[dict] = []
    if append and path.exists():
        try:
            prior = json.loads(path.read_text())
            if prior.get("figure") == figure:
                existing = list(prior.get("runs", []))
        except (json.JSONDecodeError, AttributeError):
            existing = []
    if dedupe and existing:
        def key(r: dict) -> tuple:
            return (r.get("scale"), r.get("seed"), r.get("config"))
        new_keys = {key(r) for r in runs}
        existing = [r for r in existing if key(r) not in new_keys]
    doc = {"schema": BENCH_SCHEMA, "figure": figure,
           "runs": existing + list(runs)}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def read_bench(path: str | Path) -> dict:
    """Load a BENCH file, validating its schema tag."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unknown bench schema {doc.get('schema')!r}")
    return doc
