"""Recording: run a batch once, capture its golden outcomes.

Recording is just a serve batch, whose
:class:`~repro.serve.scheduler.BatchReport` holds the finished job
records, executed inside a *hermetic* environment
(:func:`scenario_environment`):

* a **fresh temporary checkpoint spool**, so kill-and-resume jobs
  resume from checkpoints written in *this* run, never from leftovers;
* a **pinned, initially-empty tuning cache** (``$REPRO_TUNE_CACHE``
  pointed at a temp file), so ``strategy="auto"`` jobs always take the
  deterministic cold-tune path (fixed budget, fixed seed) instead of
  whatever a developer's per-user cache happens to contain.

Those two knobs are exactly what made ad-hoc replays flaky; with them
fixed, a recorded batch is a pure function of its specs, and the
recorded file can promise byte-identical re-recording.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from ..serve.scheduler import POLICIES, BatchReport, Scheduler
from .format import Scenario, goldens

__all__ = ["scenario_environment", "run_batch", "record_scenario"]


@contextmanager
def scenario_environment():
    """Hermetic record/replay context: temp checkpoint spool + pinned
    empty tuning cache.  Yields the checkpoint directory path."""
    prev_cache = os.environ.get("REPRO_TUNE_CACHE")
    with tempfile.TemporaryDirectory(prefix="repro-scenario-") as td:
        os.environ["REPRO_TUNE_CACHE"] = str(Path(td) / "tune.json")
        try:
            yield str(Path(td) / "ckpt")
        finally:
            if prev_cache is None:
                os.environ.pop("REPRO_TUNE_CACHE", None)
            else:
                os.environ["REPRO_TUNE_CACHE"] = prev_cache


def run_batch(specs, *, policy: str = "fifo", tracer=None) -> BatchReport:
    """Run ``specs`` hermetically; returns the batch's report."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    with scenario_environment() as checkpoint_dir:
        scheduler = Scheduler(policy=policy, checkpoint_dir=checkpoint_dir,
                              tracer=tracer)
        return scheduler.run_batch(specs)


def record_scenario(name: str, specs, *, description: str = "",
                    policy: str = "fifo") -> Scenario:
    """Run ``specs`` once and return the scenario with fresh goldens.

    Job names must be unique — they key the golden table.
    """
    specs = list(specs)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"job names must be unique within a scenario; "
                         f"duplicated: {', '.join(dupes)}")
    golden = goldens(run_batch(specs, policy=policy).records)
    return Scenario(name=name, specs=specs, golden=golden,
                    description=description, policy=policy)
