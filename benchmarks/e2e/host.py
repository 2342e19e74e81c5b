"""Host speed: how fast a core of this host runs a fixed piece of Python.

A shared VM's cores change speed by up to 2x within seconds, and for
minutes at a time, with the load of other tenants.  That swing is far
larger than the changes the benchmark is meant to detect, so every
timing metric is reported host-adjusted: scaled to the host speed at
which the probe takes :data:`PROBE_REF_S`.  The probe is fixed code of
this module that never calls into ``src/``, so it measures the host,
not the program.  It is timed in thread CPU time, which waiting for a
core does not count; the slowdown it tracks shows in CPU time as much
as in wall time.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

from . import ROOT

#: probe time that adjusted values are scaled to: about what the probe
#: takes on an uncontended 2-vCPU Xeon VM core
PROBE_REF_S = 1e-3
#: how often the background prober samples
SAMPLE_EVERY_S = 0.05
#: an op's probe takes the samples this far around it too, so a short
#: op has several
PROBE_PAD_NS = 100_000_000


def _probe_once() -> float:
    acc, table = 0, {}
    start = time.thread_time_ns()
    for i in range(6000):
        acc += i * i % 7
        table[i & 255] = acc
    return (time.thread_time_ns() - start) / 1e9


def probe_s() -> float:
    """Median thread CPU time of three probes, run in this thread now."""
    return statistics.median(_probe_once() for _ in range(3))


def adjust(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe`` seconds,
    scaled to the reference host speed."""
    return seconds * PROBE_REF_S / probe


def current_cpu() -> int:
    """The core this process last ran on."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _sample(cpus: list[int]) -> None:
    """Sample the probe every :data:`SAMPLE_EVERY_S` on each of ``cpus``
    in turn until stdin closes, then print the samples as JSON."""
    samples = []
    while True:
        os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
        samples.append((time.perf_counter_ns(), _probe_once()))
        if select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
            break
    json.dump(samples, sys.stdout)


class Prober:
    """A ``python -m benchmarks.e2e.host`` process that samples the
    probe on each of ``cpus`` in turn (default: every core this process
    may use).

    Use as a context manager; after it exits, :meth:`probe_between`
    gives the median probe time over a stretch of ``perf_counter_ns``
    time (``CLOCK_MONOTONIC``, which all processes share).
    """

    def __init__(self, cpus=None) -> None:
        self.cpus = sorted(cpus if cpus is not None
                           else os.sched_getaffinity(0))
        self.samples: list[tuple[int, float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Prober":
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.host",
             *map(str, self.cpus)], cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(input="", timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        self.samples = [(t, p) for t, p in json.loads(out)]

    def probe_between(self, start_ns: int, end_ns: int) -> float:
        """Median probe time sampled in ``[start_ns, end_ns]``, or the
        sample nearest to it when none fell inside."""
        inside = [p for t, p in self.samples if start_ns <= t <= end_ns]
        if not inside:
            mid = (start_ns + end_ns) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.median(inside)

    def probe_around(self, start_ns: int, end_ns: int) -> float:
        """The probe of an op that ran over ``[start_ns, end_ns]``: the
        host speed changes within seconds, so each op is adjusted by the
        samples taken while it ran, give or take :data:`PROBE_PAD_NS`."""
        return self.probe_between(start_ns - PROBE_PAD_NS,
                                  end_ns + PROBE_PAD_NS)


if __name__ == "__main__":
    _sample([int(cpu) for cpu in sys.argv[1:]])
