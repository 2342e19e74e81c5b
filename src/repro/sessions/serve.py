"""Bridge from the serving pool into incremental sessions.

A session becomes schedulable by riding inside an ordinary
:class:`~repro.serve.jobs.JobSpec`: :meth:`SessionSpec.to_job_spec`
puts the batch stream in ``params["session"]``, and the pool's worker
(:func:`repro.serve.pool._execute_job`) routes any spec carrying that
envelope here instead of to the cold adapter.  The session then
inherits the whole serving contract for free:

* the pool's ``round_hook`` fires before each batch the attempt applies,
  so cooperative timeouts and ``at_round`` faults act per batch;
* every ``checkpoint_every`` batches a session snapshot replaces the
  job's unversioned slot in the batch's
  :class:`~repro.serve.checkpoint.CheckpointStore`, and a
  killed attempt resumes from the last durable batch — replaying only
  the remaining stream, with counter totals identical to an
  uninterrupted run;
* the job digest covers the final arrays plus a per-batch summary
  (modes, dirty fractions, cost ratios), so recorded scenarios golden
  the whole incremental trajectory, not just the endpoint.
"""

from __future__ import annotations

from ..core.engine import EngineCheckpoint
from .session import Session
from .spec import SessionSpec

__all__ = ["run_session_job"]


def run_session_job(spec, ctx):
    """Adapter-shaped entry point: run a session job under ``ctx``.

    ``spec`` is a :class:`~repro.serve.jobs.JobSpec` whose
    ``params["session"]`` holds the batch stream; returns
    ``(arrays, summary)`` exactly like a cold adapter, so the pool's
    digesting, retry, and recording machinery apply unchanged.
    """
    sspec = SessionSpec.from_job_spec(spec)
    resume = (ctx.resume_state
              if isinstance(ctx.resume_state, EngineCheckpoint) else None)
    session = Session.open(sspec, counter=ctx.counter, checkpoint=resume)
    for i, ops in enumerate(sspec.batches, start=1):
        if session.recorded(i) is not None:
            continue            # already durable in the resumed state
        if ctx.round_hook is not None:
            ctx.round_hook(i)
        session.apply_batch(ops)
        if ctx.save_checkpoint is not None and session.checkpoint_due:
            ctx.save_checkpoint(session.checkpoint())

    modes = [r.mode for r in session.results]
    summary = dict(session.summary)
    summary["session"] = {
        "batches": session.applied_batches,
        "modes": modes,
        "delta_batches": modes.count("delta"),
        "full_batches": modes.count("full"),
        "cached_batches": modes.count("cached"),
        "dirty_fractions": [round(r.dirty_fraction, 6)
                            for r in session.results],
        "cost_ratios": [round(r.cost_ratio, 6) for r in session.results],
    }
    return session.arrays, summary
