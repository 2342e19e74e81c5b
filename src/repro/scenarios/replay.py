"""Replay: re-run a recorded scenario, diff against its goldens.

Replay is deliberately *not* a special execution mode — it runs the
specs through the same :class:`~repro.serve.scheduler.Scheduler`, job
body, fault injection, and driver adapters as the original recording,
inside the same hermetic environment
(:func:`~.record.scenario_environment`).
What replay adds is the **diff**: per job it compares status, result
digest, scalar summary, per-kernel op-counter totals, attempt count,
resume round, degradation flag, and the resilience-event log against
the goldens, and reports every mismatch as a human-readable string.

When a tracer is supplied, each scenario replays inside a
``scenario.replay`` span (with the per-job ``serve.job`` spans nested
under it), so a traced verification run shows *which* scenario the
modeled time went to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CorruptScenario
from ..serve.scheduler import BatchReport
from .format import (GoldenJob, Scenario, golden_from_record, goldens,
                     load_scenario, save_scenario, scenario_paths)
from .record import run_batch

__all__ = ["JobReplay", "ReplayReport", "CorpusReport", "compare_golden",
           "replay_scenario", "verify_paths"]

#: golden fields diffed on replay, in report order
_FIELDS = ("status", "digest", "summary", "counters", "attempts",
           "resumed_round", "degraded", "resilience_events", "failures")


def compare_golden(golden: GoldenJob, record) -> list[str]:
    """Every way ``record`` deviates from ``golden``, as readable strings
    (empty = byte-for-byte reproduction of the recorded outcome)."""
    fresh = golden_from_record(record)
    old, new = golden.to_dict(), fresh.to_dict()
    mismatches = []
    for key in _FIELDS:
        if old.get(key) != new.get(key):
            mismatches.append(
                f"{key}: recorded {_short(old.get(key))} "
                f"!= replayed {_short(new.get(key))}")
    return mismatches


def _short(value, limit: int = 64) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclass
class JobReplay:
    """One job's replay outcome."""

    name: str
    algorithm: str
    ok: bool
    mismatches: list = field(default_factory=list)
    golden: GoldenJob | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "algorithm": self.algorithm,
                "ok": self.ok, "mismatches": list(self.mismatches)}


@dataclass
class ReplayReport:
    """One scenario's replay outcome."""

    scenario: str
    jobs: list = field(default_factory=list)        # list[JobReplay]
    wall_s: float = 0.0
    path: str | None = None
    updated: bool = False

    @property
    def ok(self) -> bool:
        return all(j.ok for j in self.jobs)

    @property
    def failed(self) -> list:
        return [j for j in self.jobs if not j.ok]

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "path": self.path,
                "ok": self.ok, "wall_s": self.wall_s,
                "updated": self.updated,
                "jobs": [j.to_dict() for j in self.jobs]}


def replay_scenario(scenario: Scenario, *, tracer=None
                    ) -> tuple[ReplayReport, BatchReport]:
    """Re-run ``scenario`` and diff every job against its golden.

    Returns the report plus the batch's report (whose fresh records
    back ``--update-golden`` without a second run).  Jobs present in the
    specs but missing from the golden table — or vice versa — are
    mismatches, not errors: the report names them.
    """
    t0 = time.monotonic()
    if tracer is not None:
        tracer.on_span_begin("scenario.replay", cat="scenario",
                             scenario=scenario.name,
                             jobs=len(scenario.specs))
    batch = run_batch(scenario.specs, policy=scenario.policy, tracer=tracer)
    report = ReplayReport(scenario=scenario.name)
    seen = set()
    for record in batch.records:
        name = record.spec.name
        seen.add(name)
        golden = scenario.golden.get(name)
        if golden is None:
            report.jobs.append(JobReplay(
                name=name, algorithm=record.spec.algorithm, ok=False,
                mismatches=["job has no recorded golden (re-record or "
                            "--update-golden)"]))
            continue
        mismatches = compare_golden(golden, record)
        report.jobs.append(JobReplay(
            name=name, algorithm=record.spec.algorithm,
            ok=not mismatches, mismatches=mismatches, golden=golden))
    for name in sorted(set(scenario.golden) - seen):
        report.jobs.append(JobReplay(
            name=name, algorithm="?", ok=False,
            mismatches=["golden has no matching job spec"]))
    report.wall_s = time.monotonic() - t0
    if tracer is not None:
        tracer.on_span_end()
    return report, batch


@dataclass
class CorpusReport:
    """Replay outcomes for a set of scenario files."""

    reports: list = field(default_factory=list)     # list[ReplayReport]
    #: (path, message) for files that failed to load (corrupt/missing)
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and all(r.ok for r in self.reports)

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "scenarios": [r.to_dict() for r in self.reports],
                "errors": [{"path": str(p), "error": m}
                           for p, m in self.errors]}


def verify_paths(targets, *, update: bool = False, tracer=None
                 ) -> CorpusReport:
    """Replay every scenario file in ``targets`` (files or directories).

    With ``update=True``, scenarios whose replay mismatched are
    re-saved with the fresh goldens (canonical bytes, atomic write) and
    flagged ``updated`` in their report; their job mismatches still
    list what changed, so the caller can print the diff it just
    accepted.
    """
    corpus = CorpusReport()
    for path in scenario_paths(targets):
        try:
            scenario = load_scenario(path)
        except (CorruptScenario, FileNotFoundError) as exc:
            corpus.errors.append((Path(path), str(exc)))
            continue
        report, batch = replay_scenario(scenario, tracer=tracer)
        report.path = str(path)
        if update and not report.ok:
            scenario.golden = goldens(batch.records)
            save_scenario(path, scenario)
            report.updated = True
        corpus.reports.append(report)
    return corpus
