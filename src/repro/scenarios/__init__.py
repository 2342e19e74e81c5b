"""repro.scenarios — recorded-trace scenario corpus with deterministic
record/replay and golden digests.

The serving stack (:mod:`repro.serve`) can run any batch of the six
morph-algorithm drivers; this package makes such batches *regression
artifacts*.  ``record`` runs a batch hermetically and captures, per
job, the SHA-256 result digest, per-kernel op-counter totals, scalar
summary, attempt/resume/degradation history, and resilience-event log
into a canonical ``repro.scenario/1`` JSON file.  ``replay`` re-runs
the specs through the real scheduler and diffs every job against those
goldens; ``verify`` gates CI on the whole checked-in corpus
(``tests/scenarios/``).

Layers:

* :mod:`.format` — the versioned file format, canonical bytes,
  quarantine-on-corrupt loading;
* :mod:`.record` — hermetic batch runs (temp checkpoint spool, pinned
  empty tuning cache) whose batch report supplies the goldens;
* :mod:`.replay` — golden diffing and corpus verification;
* :mod:`.corpus` — the built-in scenario definitions that live under
  ``tests/scenarios/``;
* :mod:`.__main__` — the ``python -m repro.scenarios`` CLI.
"""

from .corpus import (DEFAULT_CORPUS_DIR, corpus_definitions, record_corpus,
                     record_one)
from .format import (SCENARIO_SCHEMA, GoldenJob, Scenario, canonical_bytes,
                     golden_from_record, load_scenario, save_scenario,
                     scenario_paths)
from .record import record_scenario, run_batch, scenario_environment
from .replay import (CorpusReport, JobReplay, ReplayReport, compare_golden,
                     replay_scenario, verify_paths)

__all__ = [
    "SCENARIO_SCHEMA", "GoldenJob", "Scenario", "canonical_bytes",
    "golden_from_record", "load_scenario", "save_scenario", "scenario_paths",
    "record_scenario", "run_batch", "scenario_environment",
    "CorpusReport", "JobReplay", "ReplayReport", "compare_golden",
    "replay_scenario", "verify_paths",
    "DEFAULT_CORPUS_DIR", "corpus_definitions", "record_corpus",
    "record_one",
]
