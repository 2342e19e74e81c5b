"""Batch scheduling policies and the serving front-end.

The scheduler decides *order* and runs the ordered batch inline, one
job after another, through the job body in :mod:`repro.serve.pool`.
Two classic policies are provided:

* ``fifo`` — jobs run in submission order;
* ``sjf`` — shortest-job-first by the cost proxy
  (:func:`repro.serve.jobs.estimate_cost`), a stable sort so equal-cost
  jobs keep their submission order.  SJF minimizes mean queue wait when
  the proxy is honest — the classic result the serving literature
  builds on — and because the proxy is derived from the spec alone
  (plus, optionally, the persistent :mod:`repro.tune` cache, whose
  entries carry *measured* modeled times for tuned inputs), the
  schedule is deterministic and explainable.

Observability rides along: when given a :class:`repro.obs.Tracer`, the
scheduler emits one ``serve.job`` span per job (annotated with status,
attempts, resume round and the measured wall ``service_s``) and
``serve.queue_wait_s`` / ``serve.service_s`` / ``serve.queue_depth``
gauges.  The scheduler does not activate the tracer while jobs
execute, so the drivers' launches never reach it; spans are rebuilt
from each record once the batch settles.  They do not advance the tracer's clock: that axis is
modeled GPU time, and wall seconds never share it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .jobs import JobSpec, estimate_cost
from .pool import JobRecord, _execute_job

__all__ = ["BatchReport", "Scheduler", "order_jobs"]

POLICIES = ("fifo", "sjf")


def order_jobs(specs, policy: str = "fifo", *,
               tune_cache=None) -> list[JobSpec]:
    """Return ``specs`` in the order ``policy`` would start them.

    ``tune_cache`` (a :class:`repro.tune.TuningCache`) lets SJF rank
    jobs by their tuning-cache measured cost where one exists.
    """
    specs = list(specs)
    if policy == "fifo":
        return specs
    if policy == "sjf":
        # stable: ties keep FIFO order
        return sorted(specs, key=lambda s: estimate_cost(s, tune_cache))
    raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")


@dataclass
class BatchReport:
    """Everything a caller needs to judge one batch run."""

    records: list[JobRecord]
    policy: str
    wall_s: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failed(self) -> list[JobRecord]:
        return [r for r in self.records if not r.ok]

    def mean_queue_wait_s(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.queue_wait_s for r in self.records) / len(self.records)

    def total_service_s(self) -> float:
        return sum(r.service_s for r in self.records)

    def table(self) -> str:
        """A fixed-width per-job summary table (CLI output)."""
        rows = [("job", "algo", "status", "att", "resume",
                 "wait_s", "svc_s", "digest")]
        for r in self.records:
            rows.append((
                r.spec.name, r.spec.algorithm, r.status, str(r.attempts),
                str(r.resumed_round) if r.resumed_round else "-",
                f"{r.queue_wait_s:.3f}", f"{r.service_s:.3f}",
                r.result.digest[:12] if r.result else "-"))
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy, "wall_s": self.wall_s, "ok": self.ok,
            "jobs": [{
                "name": r.spec.name, "algorithm": r.spec.algorithm,
                "status": r.status, "attempts": r.attempts,
                "resumed_round": r.resumed_round,
                "queue_wait_s": r.queue_wait_s, "service_s": r.service_s,
                "failures": list(r.failures),
                "degraded": r.degraded,
                "resilience_events": [dict(e) for e in r.resilience_events],
                "digest": r.result.digest if r.result else None,
                "summary": dict(r.result.summary) if r.result else None,
            } for r in self.records],
        }


@dataclass
class Scheduler:
    """Order a batch by policy, run it inline, report the outcome."""

    policy: str = "fifo"
    checkpoint_dir: str | None = None
    #: optional :class:`repro.obs.Tracer`; spans/gauges are emitted per job
    tracer: object | None = None
    #: optional :class:`repro.tune.TuningCache` (or a path to one) whose
    #: measured costs refine the SJF proxy for tuned inputs
    tune_cache: object | None = None

    def __post_init__(self) -> None:
        # Fail at construction, not at the first batch: a typo'd policy
        # should never get as far as accepting work.
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; known: {POLICIES}")

    def _tune_cache(self):
        if self.tune_cache is None or not isinstance(self.tune_cache,
                                                     (str, Path)):
            return self.tune_cache
        from ..tune import TuningCache

        return TuningCache(self.tune_cache)

    def run_batch(self, specs) -> BatchReport:
        """Run ``specs`` in policy order; records keep that order.

        The whole batch is submitted at once, so each job's
        ``queue_wait_s`` is the time it spent behind the jobs ahead.
        """
        ordered = order_jobs(specs, self.policy,
                             tune_cache=self._tune_cache())
        if self.tracer is not None:
            self.tracer.on_gauge("serve.queue_depth", len(ordered))
        t0 = time.monotonic()
        records = [_execute_job(s.to_dict(), self.checkpoint_dir, t0)
                   for s in ordered]
        wall_s = time.monotonic() - t0
        report = BatchReport(records=records, policy=self.policy,
                             wall_s=wall_s)
        self._trace(report)
        return report

    def _trace(self, report: BatchReport) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        for r in report.records:
            tracer.on_span_begin(
                "serve.job", cat="serve", job=r.spec.name,
                algorithm=r.spec.algorithm, status=r.status,
                attempts=r.attempts, resumed_round=r.resumed_round,
                service_s=r.service_s)
            tracer.on_span_end()
            tracer.on_gauge("serve.queue_wait_s", r.queue_wait_s)
            tracer.on_gauge("serve.service_s", r.service_s)
        tracer.on_gauge("serve.queue_depth", 0)
