"""The versioned ``repro.scenario/1`` file format.

A *scenario* is one recorded serve batch, self-contained in a single
JSON file: the :class:`~repro.serve.jobs.JobSpec` list (algorithm,
input-generator params, strategy, seed, fault/resilience envelope,
mutation stream), the scheduling policy, and — the part that makes it a
regression artifact — the **golden** outcome of every job: its SHA-256
result digest, per-kernel op-counter totals, scalar summary, attempt
count, resume round, and resilience-event log.  Replay re-runs the
specs through the real scheduler and diffs against the goldens.

Serialization is *canonical* — sorted keys, fixed indent, trailing
newline, no timestamps or host facts — so recording the same scenario
twice produces byte-identical files, and a golden update shows up in
review as a minimal diff.

A file that cannot be parsed, or that carries an unknown schema tag, is
quarantined to ``<name>.corrupt`` and reported as the typed
:class:`repro.errors.CorruptScenario` (mirroring the tune cache and
checkpoint-store discipline: keep the evidence, raise loudly, never
guess).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..errors import CorruptScenario
from ..serve.jobs import JobSpec
from ..storage import atomic_write_bytes, quarantine

__all__ = ["SCENARIO_SCHEMA", "GoldenJob", "Scenario", "canonical_bytes",
           "save_scenario", "load_scenario", "golden_from_record",
           "goldens", "scenario_paths"]

#: schema tag stamped into every scenario file (bump on format changes)
SCENARIO_SCHEMA = "repro.scenario/1"


def _plain(obj):
    """Recursively convert an object into plain JSON-able python data
    (numpy scalars to int/float, tuples to lists), so goldens compare
    equal across a JSON round trip."""
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


@dataclass
class GoldenJob:
    """The recorded outcome one job must reproduce on replay."""

    status: str                         # "ok" | "failed"
    digest: str | None
    summary: dict = field(default_factory=dict)
    #: kernel name -> the 9 ``KernelStats`` totals (launches, items,
    #: aborted, word_reads, word_writes, atomics, barriers,
    #: issued_lane_steps, useful_lane_steps)
    counters: dict = field(default_factory=dict)
    attempts: int = 1
    resumed_round: int = 0
    degraded: bool = False
    resilience_events: list = field(default_factory=list)
    #: messages of failed attempts (golden for jobs that legitimately
    #: exhaust retries; compared by exception type prefix only)
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return _plain({
            "status": self.status, "digest": self.digest,
            "summary": self.summary, "counters": self.counters,
            "attempts": self.attempts, "resumed_round": self.resumed_round,
            "degraded": self.degraded,
            "resilience_events": self.resilience_events,
            "failures": self.failures,
        })

    @classmethod
    def from_dict(cls, d: Mapping) -> "GoldenJob":
        return cls(status=d["status"], digest=d.get("digest"),
                   summary=dict(d.get("summary") or {}),
                   counters=dict(d.get("counters") or {}),
                   attempts=int(d.get("attempts", 1)),
                   resumed_round=int(d.get("resumed_round", 0)),
                   degraded=bool(d.get("degraded", False)),
                   resilience_events=list(d.get("resilience_events") or []),
                   failures=list(d.get("failures") or []))


def golden_from_record(record) -> GoldenJob:
    """Build a :class:`GoldenJob` from a finished
    :class:`repro.serve.pool.JobRecord` (wall-clock facts — queue wait,
    service seconds — are deliberately excluded: they are real time, not
    modeled time, and would never replay equal)."""
    result = record.result
    return GoldenJob(
        status=record.status,
        digest=result.digest if result is not None else None,
        summary=_plain(dict(result.summary)) if result is not None else {},
        counters=_plain(result.counter_totals()) if result is not None else {},
        attempts=record.attempts,
        resumed_round=record.resumed_round,
        degraded=record.degraded,
        resilience_events=_plain(list(record.resilience_events)),
        failures=[_failure_kind(f) for f in record.failures],
    )


def goldens(records) -> dict[str, GoldenJob]:
    """A batch's golden table: job name -> :func:`golden_from_record`,
    in the records' order."""
    return {r.spec.name: golden_from_record(r) for r in records}


def _failure_kind(message: str) -> str:
    """Reduce an attempt-failure message to its stable prefix
    (``attempt N: ExceptionType``) — the free-text tail may carry
    wall-clock numbers that never replay equal."""
    head, _, detail = str(message).partition(": ")
    kind = detail.split(":", 1)[0] if detail else ""
    return f"{head}: {kind}" if kind else head


@dataclass
class Scenario:
    """One recorded serve batch plus its golden outcomes."""

    name: str
    specs: list = field(default_factory=list)       # list[JobSpec]
    golden: dict = field(default_factory=dict)      # name -> GoldenJob
    description: str = ""
    policy: str = "fifo"

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "policy": self.policy,
            "jobs": [s.to_dict() for s in self.specs],
            "golden": {name: g.to_dict()
                       for name, g in sorted(self.golden.items())},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Scenario":
        if d.get("schema") != SCENARIO_SCHEMA:
            raise ValueError(
                f"unknown scenario schema {d.get('schema')!r} "
                f"(expected {SCENARIO_SCHEMA})")
        return cls(
            name=d["name"],
            specs=[JobSpec.from_dict(j) for j in d.get("jobs", [])],
            golden={name: GoldenJob.from_dict(g)
                    for name, g in (d.get("golden") or {}).items()},
            description=d.get("description", ""),
            policy=d.get("policy", "fifo"),
        )


def canonical_bytes(scenario: Scenario) -> bytes:
    """The canonical serialization: same scenario, same bytes, always."""
    return (json.dumps(scenario.to_dict(), sort_keys=True, indent=1)
            + "\n").encode()


def save_scenario(path: str | Path, scenario: Scenario) -> Path:
    """Atomically and durably write ``scenario`` at ``path`` (the
    shared :func:`repro.storage.atomic_write_bytes` protocol)."""
    return atomic_write_bytes(path, canonical_bytes(scenario))


def load_scenario(path: str | Path) -> Scenario:
    """Parse one scenario file; quarantine-and-raise on anything broken."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
        return Scenario.from_dict(doc)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, ValueError, KeyError, TypeError,
            OSError) as exc:
        quarantined = quarantine(path)
        raise CorruptScenario(
            f"scenario file {path} is corrupt ({type(exc).__name__}: "
            f"{exc}); quarantined to {quarantined}", path=path,
            quarantined=quarantined) from exc


def scenario_paths(targets: Iterable[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted list of scenario files
    (``*.json`` directly inside each directory)."""
    out: list[Path] = []
    for target in targets:
        p = Path(target)
        if p.is_dir():
            out.extend(sorted(q for q in p.glob("*.json") if q.is_file()))
        else:
            out.append(p)
    return out
