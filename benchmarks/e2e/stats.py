"""Sample statistics, the metric record, and ``BENCHMARK.json``."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from . import ROOT

INF = float("inf")

#: a tail percentile needs this many samples beyond it (p95: n >= 200)
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples."""


@dataclass(frozen=True)
class Metric:
    """One reported number with its unit and sample count."""

    value: float
    unit: str
    n: int

    def to_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit, "n": self.n}


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``samples``,
    in which a failed or refused op is +inf: it misses every latency
    limit.

    Refuses a percentile above the median that has fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it, so p95 needs n >= 200.
    """
    n = len(samples)
    if n == 0:
        raise InsufficientSamples("no samples")
    if q > 50 and n * (100 - q) / 100 < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"have n={n}")
    xs = sorted(samples)
    pos = (n - 1) * q / 100
    lo, frac = int(pos), pos - int(pos)
    a = xs[lo]
    if frac == 0:
        return a
    b = xs[lo + 1]
    if b == INF:
        return INF
    return a + (b - a) * frac


def p50(samples) -> Metric:
    """The median of ``samples`` seconds."""
    return Metric(percentile(samples, 50), "s", len(samples))


def p95_or_none(samples) -> Metric | None:
    """p95 of ``samples`` seconds when there are enough samples for it,
    else ``None``."""
    try:
        value = percentile(samples, 95)
    except InsufficientSamples:
        return None
    return Metric(value, "s", len(samples))


def spread(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def iqr_frac(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = spread(values)
    if med == 0:
        return 0.0 if q3 == q1 else INF
    return (q3 - q1) / abs(med)


def json_number(value: float) -> float:
    """A JSON-safe number (infinities become the largest float)."""
    if math.isnan(value):
        raise ValueError("metric value is NaN")
    if math.isinf(value):
        return math.copysign(1.7976931348623157e308, value)
    return value


def load_benchmark(path: Path | None = None) -> dict:
    """``BENCHMARK.json`` at the repository root."""
    path = path or ROOT / "BENCHMARK.json"
    with open(path) as fh:
        return json.load(fh)
