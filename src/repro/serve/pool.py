"""Job execution with timeouts, retries, and resume.

The execution model mirrors a small production queue:

* **One job body.**  :func:`_execute_job` runs a job to completion in
  the calling process.  :func:`run_job` and the
  :class:`~repro.serve.scheduler.Scheduler` call it inline, which is
  the deterministic reference path; the gateway's warm worker processes
  (:class:`repro.gateway.workers.WorkerPool`) call the same function,
  which is what makes inline-vs-gateway byte-identity checks
  meaningful.

* **Retries live inside the job body.**  Per-attempt control (fault
  injection, cooperative timeout, exponential backoff, checkpoint
  restore) happens in an attempt loop inside :func:`_execute_job`, so
  a gateway worker retries without a round trip to the parent.  Every
  attempt gets a *fresh* :class:`OpCounter`; a failed attempt's
  partial tallies are discarded, so the totals of a retried-and-resumed
  job equal those of an uninterrupted run.

* **One fault injector per attempt.**  The attempt's
  :class:`~repro.vgpu.faults.FaultInjector`, built from the spec's
  :class:`~repro.serve.faults.FaultPlan`, sits in the
  :data:`~repro.vgpu.instrument.FAULTS` slot for the whole attempt:
  the device sites and the durable writes read it there, and the job
  start and the round hook call it.  Its event counters start at the
  attempt's start, so a plan fires on the same events with or without
  ``resilience``.  A cold tune's trials run with the slot empty, so
  they fire and count nothing.

* **Timeouts are cooperative.**  The engine's ``round_hook`` checks a
  wall-clock deadline at each round boundary and raises
  :class:`JobTimeout`; drivers without round hooks only honor the
  deadline at job start.  This matches the checkpoint granularity — a
  job can only resume from a round boundary, so that is also where it
  makes sense to give up.

* **Checkpoints make retries cheap.**  When a spec carries
  ``checkpoint_every > 0`` and the batch has a checkpoint directory,
  each attempt first consults the :class:`CheckpointStore`; a fresh
  attempt resumes from the newest readable checkpoint (restoring the
  engine's RNG state and counter) instead of restarting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.counters import OpCounter
from ..core.engine import EngineCheckpoint
from ..resilience import Resilience
from ..vgpu.instrument import FAULTS
from .checkpoint import CheckpointStore
from .faults import FaultInjected
from .jobs import (JobContext, JobError, JobResult, JobSpec, digest_arrays,
                   get_adapter)

__all__ = ["JobRecord", "JobTimeout", "run_job"]


class JobTimeout(JobError):
    """A job attempt exceeded its cooperative wall-clock budget."""


@dataclass
class JobRecord:
    """The pool's full account of one job: outcome plus scheduling facts."""

    spec: JobSpec
    status: str = "pending"             # "ok" | "failed"
    result: JobResult | None = None
    attempts: int = 0
    #: one message per failed attempt, oldest first
    failures: list = field(default_factory=list)
    #: seconds between batch submit and the job starting to execute
    queue_wait_s: float = 0.0
    #: seconds spent executing (all attempts, including backoff)
    service_s: float = 0.0
    #: round the successful attempt resumed from (0 = clean start)
    resumed_round: int = 0
    #: the successful attempt degraded gracefully (resilience absorbed
    #: at least one device fault or stall)
    degraded: bool = False
    #: the degradation event log of the successful attempt (out-of-band
    #: — never part of the result digest)
    resilience_events: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _execute_job(spec_dict: dict, checkpoint_dir: str | None,
                 submitted_at: float) -> JobRecord:
    """Run one job to completion (or exhaustion) in this process.

    Takes the spec as a dict because that is how it reaches a gateway
    worker; ``submitted_at`` is the ``time.monotonic()`` the job was
    queued at, so ``queue_wait_s`` measures the wait behind earlier jobs.
    """
    spec = JobSpec.from_dict(spec_dict)
    record = JobRecord(spec=spec)
    record.queue_wait_s = max(0.0, time.monotonic() - submitted_at)
    started = time.monotonic()

    store = (CheckpointStore(checkpoint_dir)
             if checkpoint_dir and spec.checkpoint_every > 0 else None)
    adapter = get_adapter(spec.algorithm)
    max_attempts = 1 + max(0, spec.retries)

    for attempt in range(1, max_attempts + 1):
        record.attempts = attempt
        injector = (spec.fault.injector(attempt)
                    if spec.fault is not None else None)
        resil = Resilience() if spec.resilience else None
        deadline = (time.monotonic() + spec.timeout_s
                    if spec.timeout_s is not None else None)

        resume = store.load_latest(spec.name) if store is not None else None
        counter = (resume.counter if isinstance(resume, EngineCheckpoint)
                   else OpCounter())

        def round_hook(round_: int) -> None:
            if injector is not None:
                injector.on_round(round_)
            if deadline is not None and time.monotonic() > deadline:
                raise JobTimeout(
                    f"{spec.name}: attempt {attempt} passed "
                    f"{spec.timeout_s}s at round {round_}")

        ctx = JobContext(
            counter=counter,
            round_hook=round_hook,
            checkpoint_every=spec.checkpoint_every,
            save_checkpoint=(
                (lambda ck: store.save(spec.name, ck))
                if store is not None else None),
            resume_state=resume,
            resilience=resil,
        )
        try:
            with FAULTS.maybe_activate(injector):
                if injector is not None:
                    injector.on_job_start()
                if deadline is not None and time.monotonic() > deadline:
                    raise JobTimeout(
                        f"{spec.name}: attempt {attempt} had no budget")
                if spec.params.get("session"):
                    # A session job: stream its mutation batches
                    # incrementally (lazy import — most batches carry
                    # no sessions and should not pay for the package).
                    from ..sessions.serve import run_session_job

                    arrays, summary = run_session_job(spec, ctx)
                else:
                    arrays, summary = adapter(
                        spec.params, spec.strategy, spec.seed, ctx)
        except (FaultInjected, JobError, ValueError, RuntimeError) as exc:
            record.failures.append(
                f"attempt {attempt}: {type(exc).__name__}: {exc}")
            if attempt < max_attempts and spec.backoff_s > 0:
                time.sleep(spec.backoff_s * 2 ** (attempt - 1))
            continue

        if isinstance(resume, EngineCheckpoint):
            record.resumed_round = resume.round
        if resil is not None and resil.degraded:
            record.degraded = True
            record.resilience_events = [dict(e) for e in resil.events]
        record.result = JobResult(
            name=spec.name, algorithm=spec.algorithm,
            digest=digest_arrays(arrays, summary),
            summary=dict(summary), counter=counter)
        record.status = "ok"
        if store is not None:
            store.clear(spec.name)
        break
    else:
        record.status = "failed"

    record.service_s = time.monotonic() - started
    return record


def run_job(spec: JobSpec, checkpoint_dir: str | None = None) -> JobRecord:
    """Execute one spec inline, in this process."""
    return _execute_job(spec.to_dict(), checkpoint_dir, time.monotonic())
