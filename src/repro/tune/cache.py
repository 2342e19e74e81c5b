"""Persistent tuning cache (schema ``repro.tune/1``).

One JSON file holds every tuning the machine has done, keyed by
``(algorithm, input fingerprint, cost-model version)``.  The fingerprint
hashes the canonical input parameters, so two jobs with the same
algorithm and generator parameters share a tuning regardless of job
name; the cost-model version (:data:`repro.vgpu.costmodel.COST_MODEL_VERSION`)
keys the *prices*, so a cache survives a cost-model change by missing —
never by replaying tunings ranked under different rules.

Durability follows :class:`repro.serve.checkpoint.CheckpointStore`:
writes go through :func:`repro.storage.atomic_write_json` (temp file,
fsync, ``os.replace``, directory fsync), so a process killed mid-write
— or a power loss — can never leave a truncated cache.  Unlike checkpoints
(which are per-job and disposable), a corrupt cache file is
*quarantined* — renamed to ``<path>.corrupt`` — rather than deleted, so
the evidence survives while the cache continues from empty.  A save
is one durable write, so a ``replace_crash`` disk fault kills it in
the window between the temp write and the rename, the exact window an
atomicity bug would hide in.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

from ..storage import atomic_write_json, quarantine
from ..vgpu.costmodel import COST_MODEL_VERSION

__all__ = ["TUNE_SCHEMA", "TuneRecord", "TuningCache",
           "fingerprint_params", "default_cache_path"]

TUNE_SCHEMA = "repro.tune/1"


def fingerprint_params(algorithm: str, params: Mapping) -> str:
    """Stable short hash of one tuning problem's inputs."""
    blob = json.dumps({"algorithm": algorithm, "params": dict(params)},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def default_cache_path() -> Path:
    """``$REPRO_TUNE_CACHE`` if set, else a per-user cache file."""
    env = os.environ.get("REPRO_TUNE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "tune.json"


@dataclass(frozen=True)
class TuneRecord:
    """One cached tuning: the winning config and how it was found."""

    algorithm: str
    fingerprint: str
    config: dict
    #: the winner's modeled GPU seconds on the final (largest) proxy
    #: input — the measured cost proxy the SJF scheduler consults
    modeled_gpu_s: float
    engine: str = "exhaustive"
    budget: int = 0
    seed: int = 0
    trials: int = 0
    cost_model_version: int = field(default=COST_MODEL_VERSION)

    @property
    def key(self) -> str:
        return f"{self.algorithm}/{self.fingerprint}/v{self.cost_model_version}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "TuneRecord":
        return cls(algorithm=d["algorithm"], fingerprint=d["fingerprint"],
                   config=dict(d["config"]),
                   modeled_gpu_s=float(d["modeled_gpu_s"]),
                   engine=d.get("engine", "exhaustive"),
                   budget=int(d.get("budget", 0)),
                   seed=int(d.get("seed", 0)),
                   trials=int(d.get("trials", 0)),
                   cost_model_version=int(d.get("cost_model_version",
                                                COST_MODEL_VERSION)))


class TuningCache:
    """The persistent ``repro.tune/1`` JSON cache at one path."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()

    # ------------------------------------------------------------------ #
    def load(self) -> dict[str, TuneRecord]:
        """Every record in the file; corrupt files are quarantined."""
        if not self.path.exists():
            return {}
        try:
            doc = json.loads(self.path.read_text())
            if doc.get("schema") != TUNE_SCHEMA:
                raise ValueError(f"unknown tune schema {doc.get('schema')!r}")
            return {k: TuneRecord.from_dict(v)
                    for k, v in doc.get("entries", {}).items()}
        except (json.JSONDecodeError, ValueError, KeyError, TypeError,
                OSError):
            self._quarantine()
            return {}

    def _quarantine(self) -> None:
        """Move a corrupt cache aside (never delete the evidence)."""
        quarantine(self.path)

    def save(self, entries: Mapping[str, TuneRecord]) -> Path:
        """Atomically replace the cache file with ``entries``.

        The serialization is fully deterministic (sorted keys, no
        timestamps): two tuning runs with the same seed produce
        byte-identical cache files, which is the reproducibility witness
        the benchmarks assert.
        """
        doc = {"schema": TUNE_SCHEMA,
               "entries": {k: entries[k].to_dict() for k in sorted(entries)}}
        return atomic_write_json(self.path, doc)

    # ------------------------------------------------------------------ #
    def get(self, algorithm: str, fingerprint: str,
            version: int = COST_MODEL_VERSION) -> TuneRecord | None:
        return self.load().get(f"{algorithm}/{fingerprint}/v{version}")

    def put(self, record: TuneRecord) -> Path:
        entries = self.load()
        entries[record.key] = record
        return self.save(entries)
