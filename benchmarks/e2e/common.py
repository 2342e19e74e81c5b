"""What every workload reports, whatever it drives."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from .host import PROBE_REF_S, adjust
from .stats import INF, Metric, p50, p95_or_none, percentile

#: per-template metric name of each serve algorithm's e2e split
DRIVER_METRIC = {"sp": "satsp.latency_p50_s", "pta": "pta.latency_p50_s",
                 "mst": "mst.latency_p50_s",
                 "engine": "core.engine.latency_p50_s"}


@dataclass
class Pass:
    """One measured window of one workload."""

    metrics: dict[str, Metric]
    attempted: int
    #: one message per failed op or failed output check
    failures: list[str] = field(default_factory=list)
    #: the spans of a traced pass
    spans: list | None = None
    #: process id -> role, for the Chrome trace
    roles: dict = field(default_factory=dict)


def process_age_s() -> float:
    """Seconds since this process started (``/proc`` start time, 10 ms
    resolution; the boot-time clock the kernel stamps it with)."""
    with open(f"/proc/{os.getpid()}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def own_peak_rss_mb() -> Metric:
    return Metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "MB", 1)


@dataclass(frozen=True)
class Timed:
    """A timed stretch: an op (``kind`` names its template, +inf seconds
    if it failed), a set-up or a window, with the host probe time
    measured around it."""

    kind: str
    seconds: float
    probe: float

    @property
    def adjusted(self) -> float:
        return adjust(self.seconds, self.probe)


def window_of(kind: str, seconds: float, ops: list[Timed]) -> Timed:
    """A window of ``seconds`` in which ``ops`` ran, with the probe that
    adjusts it as the ops' own probes adjust them (weighted by their
    time)."""
    return Timed(kind, seconds, sum(op.seconds for op in ops) * PROBE_REF_S
                 / sum(op.adjusted for op in ops))


def by_kind(ops, *, adjusted: bool = True) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for op in ops:
        out.setdefault(op.kind, []).append(
            op.adjusted if adjusted else op.seconds)
    return out


def kind_p50(ops, *, adjusted: bool = True) -> Metric:
    """The mean over templates of each template's median op latency:
    the pooled median of a mix of templates lands between two of them
    and jumps with their proportions."""
    kinds = by_kind(ops, adjusted=adjusted).values()
    return Metric(statistics.fmean(percentile(xs, 50) for xs in kinds), "s",
                  len(ops))


def end_to_end(ops: list[Timed], *, completed: int, window: Timed,
               setups: list[Timed], rss: Metric) -> dict[str, Metric]:
    """The end-to-end metrics of one pass, host-adjusted, with their
    wall-clock values beside them as ``wall.*``.

    ``ops`` are the latency samples (a failed op has +inf seconds);
    ``completed`` ops finished within ``window``; ``setups`` are the
    pass's set-ups, of which ``setup_s`` is the median.
    """
    latencies = [op.adjusted for op in ops]
    failed = sum(op.seconds == INF for op in ops)
    out = {"setup_s": Metric(statistics.median(s.adjusted for s in setups),
                             "s", len(setups)),
           "latency_p50_s": kind_p50(ops),
           "throughput_per_s": Metric(completed / window.adjusted, "ops/s",
                                      completed),
           "failed_frac": Metric(failed / max(1, len(ops)), "fraction",
                                 len(ops)),
           "peak_rss_mb": rss,
           "wall.setup_s": Metric(statistics.median(s.seconds
                                                    for s in setups),
                                  "s", len(setups)),
           "wall.latency_p50_s": kind_p50(ops, adjusted=False),
           "wall.throughput_per_s": Metric(completed / window.seconds,
                                           "ops/s", completed),
           "host.probe_s": Metric(window.probe, "s", len(ops))}
    tail = p95_or_none(latencies)
    if tail is not None:
        out["latency_p95_s"] = tail
    return out


def template_split(ops) -> dict[str, Metric]:
    """Per-driver host-adjusted p50 of the ops' latencies."""
    return {DRIVER_METRIC[k]: p50(xs) for k, xs in by_kind(ops).items()
            if k in DRIVER_METRIC}


def counter_metrics(counters) -> dict[str, Metric]:
    """The paper's modeled axis over a fixed set of ops: op counters
    and the cost model's GPU time.  Exact for a given seed."""
    from repro.vgpu.costmodel import CostModel

    model = CostModel()
    counters = list(counters)
    n = len(counters)
    items = sum(c.total_items() for c in counters)
    issued = sum(ks.issued_lane_steps for c in counters for _, ks in c)
    useful = sum(ks.useful_lane_steps for c in counters for _, ks in c)
    return {
        "vgpu.modeled_gpu_s": Metric(statistics.median(
            model.gpu_time(c) for c in counters), "s", n),
        "vgpu.launches": Metric(statistics.median(
            c.total_launches() for c in counters), "count", n),
        "vgpu.items": Metric(statistics.median(
            c.total_items() for c in counters), "count", n),
        "core.conflict.abort_ratio": Metric(
            sum(c.total_aborted() for c in counters) / max(1, items),
            "fraction", n),
        "vgpu.lane_efficiency": Metric(useful / max(1, issued),
                                       "fraction", n),
    }


def span_p50(spans, metric: str, *names) -> dict[str, Metric]:
    """``{metric: p50}`` of the spans named one of ``names`` inside an
    op (empty when there are none)."""
    xs = [(s.end - s.start) / 1e9 for s in spans
          if s.name in names and s.op >= 0]
    return {metric: p50(xs)} if xs else {}
