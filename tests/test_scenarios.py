"""repro.scenarios: format, hermetic record/replay, goldens, mutation
streams, the checked-in corpus, and the CLI."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CorruptScenario, ReproError
from repro.scenarios import (SCENARIO_SCHEMA, Scenario, canonical_bytes,
                             load_scenario, record_scenario, replay_scenario,
                             save_scenario, verify_paths)
from repro.scenarios.__main__ import main as scenarios_main
from repro.scenarios.corpus import record_one
from repro.serve import (JobSpec, apply_graph_mutations, check_mutations,
                         run_job)

CORPUS_DIR = Path(__file__).resolve().parent / "scenarios"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def _mst_spec(name="mst-t", seed=17, **kw):
    return JobSpec(name=name, algorithm="mst",
                   params={"num_nodes": 60, "num_edges": 180},
                   seed=seed, **kw)


def _record(name="one-mst", specs=None, **kw):
    return record_scenario(name, specs or [_mst_spec()], **kw)


class TestFormat:
    def test_dict_round_trip_preserves_canonical_bytes(self):
        sc = _record()
        again = Scenario.from_dict(sc.to_dict())
        assert canonical_bytes(again) == canonical_bytes(sc)

    def test_canonical_bytes_are_canonical(self):
        raw = canonical_bytes(_record())
        assert raw.endswith(b"\n")
        doc = json.loads(raw)
        assert doc["schema"] == SCENARIO_SCHEMA
        # canonical = re-dumping the parsed doc reproduces the bytes
        assert (json.dumps(doc, sort_keys=True, indent=1) + "\n"
                ).encode() == raw

    def test_save_load_round_trip(self, tmp_path):
        sc = _record()
        path = save_scenario(tmp_path / "one.json", sc)
        assert load_scenario(path).to_dict() == sc.to_dict()

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            Scenario.from_dict({"schema": "repro.scenario/999",
                                "name": "x"})

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "absent.json")

    @pytest.mark.parametrize("payload", [
        b"{ not json",                                      # unparsable
        b'{"schema": "repro.scenario/999", "name": "x"}',   # wrong schema
        b'{"schema": "repro.scenario/1"}',                  # missing keys
    ])
    def test_corrupt_file_is_quarantined_and_raises(self, tmp_path,
                                                    payload):
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        with pytest.raises(CorruptScenario) as exc_info:
            load_scenario(path)
        assert isinstance(exc_info.value, ReproError)
        assert not path.exists()
        quarantined = exc_info.value.quarantined
        assert quarantined is not None and quarantined.exists()
        assert quarantined.read_bytes() == payload


class TestMutations:
    def test_unknown_op_rejected_with_vocabulary(self):
        with pytest.raises(ValueError, match="warp_edges"):
            check_mutations("mst", [{"op": "warp_edges", "count": 1}])

    def test_op_of_other_algorithm_rejected(self):
        with pytest.raises(ValueError, match="add_clauses"):
            check_mutations("mst", [{"op": "add_clauses", "count": 1}])

    def test_graph_mutations_deterministic(self):
        rng = np.random.default_rng(3)
        lo = rng.integers(0, 50, 120).astype(np.int64)
        hi = rng.integers(50, 100, 120).astype(np.int64)
        w = rng.integers(1, 1000, 120).astype(np.int64)
        ops = [{"op": "add_edges", "count": 15, "seed": 1},
               {"op": "drop_edges", "count": 10, "seed": 2},
               {"op": "reweight_edges", "count": 5, "seed": 3}]
        a = apply_graph_mutations(100, lo.copy(), hi.copy(), w.copy(), ops)
        b = apply_graph_mutations(100, lo.copy(), hi.copy(), w.copy(), ops)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert a[0].size == 120 + 15 - 10

    def test_mutated_job_differs_from_unmutated(self):
        plain = run_job(_mst_spec())
        mutated_spec = _mst_spec(name="mst-mut")
        mutated_spec.params["mutations"] = [
            {"op": "drop_edges", "count": 20, "seed": 5}]
        mutated = run_job(mutated_spec)
        assert plain.ok and mutated.ok
        assert plain.result.digest != mutated.result.digest


class TestRecordReplay:
    def test_record_then_replay_reproduces(self):
        sc = _record()
        report, batch = replay_scenario(sc)
        assert report.ok
        assert len(batch.records) == 1

    def test_duplicate_job_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            _record(specs=[_mst_spec(), _mst_spec()])

    def test_tampered_golden_digest_is_caught(self):
        sc = _record()
        sc.golden["mst-t"].digest = "0" * 64
        report, _ = replay_scenario(sc)
        assert not report.ok
        assert any("digest" in m for j in report.failed
                   for m in j.mismatches)

    def test_tampered_counters_are_caught(self):
        sc = _record()
        next(iter(sc.golden.values())).counters = {"phantom_kernel":
                                                   [1] * 9}
        report, _ = replay_scenario(sc)
        assert not report.ok
        assert any("counters" in m for j in report.failed
                   for m in j.mismatches)

    def test_missing_and_orphan_goldens_are_mismatches(self):
        sc = _record(specs=[_mst_spec(), _mst_spec(name="mst-u", seed=5)])
        golden_u = sc.golden.pop("mst-u")
        sc.golden["ghost"] = golden_u
        report, _ = replay_scenario(sc)
        names = {j.name for j in report.failed}
        assert names == {"mst-u", "ghost"}

    def test_update_golden_heals_a_tampered_file(self, tmp_path):
        sc = _record()
        sc.golden["mst-t"].digest = "0" * 64
        path = save_scenario(tmp_path / "t.json", sc)
        first = verify_paths([path])
        assert not first.ok
        healed = verify_paths([path], update=True)
        assert healed.reports[0].updated
        assert verify_paths([path]).ok

    def test_verify_paths_surfaces_corrupt_files(self, tmp_path):
        (tmp_path / "bad.json").write_text("nope")
        corpus = verify_paths([tmp_path])
        assert not corpus.ok and len(corpus.errors) == 1


class TestComposition:
    def test_sanitized_traced_resilient_replay_matches_plain_run(self):
        """All observability layers at once — the race detector
        shadowing device accesses, the tracer pricing spans, resilience
        armed — must not perturb replayed results."""
        from repro.analysis import RaceDetector
        from repro.obs import Tracer

        spec = JobSpec(name="compose", algorithm="engine",
                       params={"num_nodes": 60, "num_edges": 170},
                       seed=33, resilience=True)
        plain = run_job(spec)
        assert plain.ok
        sc = record_scenario("compose", [spec])
        detector, tracer = RaceDetector(), Tracer()
        with detector.activate():
            report, batch = replay_scenario(sc, tracer=tracer)
        detector.assert_clean()
        assert report.ok
        assert batch.records[0].result.digest == plain.result.digest
        names = [e.name for e in tracer.events]
        assert "scenario.replay" in names and "serve.job" in names


class TestCLI:
    def _jobs_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": [_mst_spec().to_dict()]}))
        return path

    def test_record_then_verify_ok(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path)
        assert scenarios_main(["record", "cli-t", str(jobs),
                               "-o", str(tmp_path)]) == 0
        assert scenarios_main(["verify", str(tmp_path / "cli-t.json")]) == 0
        out = capsys.readouterr().out
        assert "1/1 scenarios reproduced" in out

    def test_mismatch_exits_1_and_update_golden_heals(self, tmp_path):
        jobs = self._jobs_file(tmp_path)
        scenarios_main(["record", "cli-t", str(jobs), "-o", str(tmp_path)])
        path = tmp_path / "cli-t.json"
        doc = json.loads(path.read_text())
        doc["golden"]["mst-t"]["digest"] = "f" * 64
        path.write_text(json.dumps(doc))
        assert scenarios_main(["verify", str(path)]) == 1
        assert scenarios_main(["verify", str(path),
                               "--update-golden"]) == 0
        assert scenarios_main(["verify", str(path)]) == 0

    def test_corrupt_scenario_exits_2(self, tmp_path):
        (tmp_path / "bad.json").write_text("not json")
        assert scenarios_main(["verify", str(tmp_path)]) == 2

    def test_report_file_is_written(self, tmp_path):
        jobs = self._jobs_file(tmp_path)
        scenarios_main(["record", "cli-t", str(jobs), "-o", str(tmp_path)])
        report = tmp_path / "report.json"
        assert scenarios_main(["verify", str(tmp_path / "cli-t.json"),
                               "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["ok"] and len(doc["scenarios"]) == 1


class TestCorpus:
    """The checked-in corpus under tests/scenarios/ keeps its promised
    coverage; replays live under the ``scenario`` marker."""

    def _scenarios(self):
        return [load_scenario(p) for p in CORPUS_FILES]

    def test_corpus_is_large_enough(self):
        assert len(CORPUS_FILES) >= 10

    def test_corpus_covers_every_driver(self):
        algos = {s.algorithm for sc in self._scenarios()
                 for s in sc.specs}
        assert algos == {"dmr", "insertion", "sp", "pta", "mst", "engine"}

    def test_corpus_covers_the_hard_paths(self):
        scenarios = self._scenarios()
        specs = [s for sc in scenarios for s in sc.specs]
        goldens = [g for sc in scenarios for g in sc.golden.values()]
        # kill-and-resume through the checkpoint store
        assert any(s.checkpoint_every > 0 and s.fault is not None
                   and s.fault.kind == "kill" for s in specs)
        assert any(g.resumed_round > 0 for g in goldens)
        # device-fault graceful degradation
        assert any(g.degraded and g.resilience_events for g in goldens)
        # autotuned strategy resolution
        assert any(s.strategy == "auto" for s in specs)
        # recorded mutation streams
        assert any(s.params.get("mutations") for s in specs)
        # a multi-job non-FIFO batch
        assert any(sc.policy == "sjf" and len(sc.specs) > 1
                   for sc in scenarios)


@pytest.mark.scenario
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_scenario_replays_byte_identical(path):
    corpus = verify_paths([path])
    assert not corpus.errors, corpus.errors
    report = corpus.reports[0]
    assert report.ok, {j.name: j.mismatches for j in report.failed}


@pytest.mark.scenario
@pytest.mark.parametrize("name", ["mst_random", "engine_kill_resume",
                                  "sp_clause_stream"])
def test_rerecording_is_byte_identical(name, tmp_path):
    """Re-recording a corpus scenario from its definition reproduces the
    checked-in file byte for byte — goldens included."""
    fresh = record_one(name, tmp_path)
    assert fresh.read_bytes() == (CORPUS_DIR / f"{name}.json").read_bytes()
