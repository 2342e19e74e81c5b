"""Durability properties of :mod:`repro.storage` and every store built
on it.

The contract under test is *old-or-new, never a mix*: a write killed at
any step of the temp-write/fsync/rename protocol — disk full mid-write,
process death mid-write, death between fsync and rename, power loss
around the publish — leaves the published path holding either the
complete previous version or the complete new version.

The fast deterministic checks run in tier-1; the hypothesis-driven
kill-at-every-site sweeps are marked ``durability`` and run with
``pytest --durability`` (CI's durability step).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (ArtifactError, CorruptCheckpoint,
                          CorruptJournal, CorruptScenario, DiskFull,
                          StorageFault, TornWrite)
from repro.gateway.journal import Journal, read_journal
from repro.scenarios.format import (Scenario, canonical_bytes,
                                    load_scenario, save_scenario)
from repro.serve.checkpoint import CheckpointStore
from repro.storage import atomic_write_bytes, atomic_write_json, quarantine
from repro.tune.cache import TuneRecord, TuningCache
from repro.vgpu.faults import (DISK_KINDS, FaultInjected, FaultInjector,
                               FaultRule, FaultRules)
from repro.vgpu.instrument import FAULTS

#: every error a faulted durable write may surface
WRITE_ERRORS = (StorageFault, FaultInjected)

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _injector(kind: str, at: int = 1, path: str | None = None
              ) -> FaultInjector:
    return FaultRules.of(FaultRule(kind=kind, at=(at,), path=path)).injector()


def _record(tag: str) -> TuneRecord:
    return TuneRecord(algorithm="mst", fingerprint=tag,
                      config={"tag": tag}, modeled_gpu_s=1.0)


# ------------------------------------------------------------------ #
# Tier-1: the protocol and its typed errors                           #
# ------------------------------------------------------------------ #

class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "a.bin"
        assert atomic_write_bytes(path, b"one") == path
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert not path.with_name("a.bin.tmp").exists()

    def test_json_serialization_is_canonical(self, tmp_path):
        a = atomic_write_json(tmp_path / "a.json", {"b": 1, "a": 2})
        b = atomic_write_json(tmp_path / "b.json", {"a": 2, "b": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_disk_errors_are_typed_artifact_errors(self):
        assert issubclass(DiskFull, StorageFault)
        assert issubclass(TornWrite, StorageFault)
        assert issubclass(StorageFault, ArtifactError)
        assert issubclass(CorruptJournal, ArtifactError)

    @pytest.mark.parametrize("kind", DISK_KINDS)
    def test_every_fault_kind_keeps_the_old_version(self, tmp_path, kind):
        path = tmp_path / "a.bin"
        atomic_write_bytes(path, b"old-version")
        with FAULTS.activate(_injector(kind)):
            with pytest.raises(WRITE_ERRORS):
                atomic_write_bytes(path, b"new-version")
        assert path.read_bytes() == b"old-version"
        # The failed write never poisons the next one.
        atomic_write_bytes(path, b"new-version")
        assert path.read_bytes() == b"new-version"

    def test_path_filter_targets_only_matching_writes(self, tmp_path):
        inj = FaultRules.of(
            FaultRule(kind="enospc", at=(1, 2), path=".ckpt")).injector()
        with FAULTS.activate(inj):
            # Event 1 is due but filtered out by path — and it still
            # advances the counter (a filter never re-times a rule).
            atomic_write_bytes(tmp_path / "a.json", b"fine")
            with pytest.raises(DiskFull):
                atomic_write_bytes(tmp_path / "b.ckpt", b"boom")
        assert inj.writes == 2
        assert inj.fired["enospc"] == 1

    def test_quarantine_preserves_the_evidence(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"damaged")
        moved = quarantine(path)
        assert moved == tmp_path / "a.bin.corrupt"
        assert moved.read_bytes() == b"damaged"
        assert not path.exists()


# ------------------------------------------------------------------ #
# Durability sweeps: old-or-new at every site, for every store        #
# ------------------------------------------------------------------ #

@pytest.mark.durability
class TestAtomicWriteProperties:
    @given(kind=st.sampled_from(DISK_KINDS),
           old=st.none() | st.binary(max_size=64),
           new=st.binary(min_size=2, max_size=64))
    @_SETTINGS
    def test_old_or_new_never_a_mix(self, tmp_path_factory, kind, old,
                                    new):
        path = tmp_path_factory.mktemp("aw") / "artifact.bin"
        if old is not None:
            atomic_write_bytes(path, old)
        with FAULTS.activate(_injector(kind)):
            with pytest.raises(WRITE_ERRORS):
                atomic_write_bytes(path, new)
        if old is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == old
        atomic_write_bytes(path, new)
        assert path.read_bytes() == new


@pytest.mark.durability
class TestCheckpointDurability:
    @given(kind=st.sampled_from(DISK_KINDS),
           at=st.integers(min_value=1, max_value=3))
    @_SETTINGS
    def test_versioned_history_survives_a_killed_save(
            self, tmp_path_factory, kind, at):
        store = CheckpointStore(tmp_path_factory.mktemp("ckpt"),
                                keep_latest=3)
        states = {v: {"round": v, "payload": list(range(v))}
                  for v in (1, 2, 3)}
        failed = None
        with FAULTS.activate(_injector(kind, at=at)):
            for v, state in states.items():
                try:
                    store.save("job", state, version=v)
                except WRITE_ERRORS:
                    failed = v
        assert failed == at
        # The newest *surviving* version loads complete; the killed
        # version is absent, not torn.
        survivors = [v for v in states if v != failed]
        assert store.versions("job") == survivors
        assert store.load("job") == states[max(survivors)]

    def test_corrupt_checkpoint_is_quarantined_and_typed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("job", {"round": 1})
        store.path("job").write_bytes(b"\x80\x04 torn pickle")
        with pytest.raises(CorruptCheckpoint) as exc:
            store.load("job")
        assert exc.value.quarantined.name.endswith(".corrupt")
        assert not store.path("job").exists()
        # The slot is usable again.
        store.save("job", {"round": 2})
        assert store.load("job") == {"round": 2}


@pytest.mark.durability
class TestTuneCacheDurability:
    @given(kind=st.sampled_from(DISK_KINDS),
           at=st.integers(min_value=1, max_value=3))
    @_SETTINGS
    def test_cache_is_old_or_new_across_killed_puts(
            self, tmp_path_factory, kind, at):
        cache = TuningCache(tmp_path_factory.mktemp("tune") / "t.json")
        committed: dict = {}
        for i, tag in enumerate(("fp1", "fp2", "fp3"), start=1):
            record = _record(tag)
            try:
                # Each put is one durable write event.
                with FAULTS.activate(
                        _injector(kind, at=1 if i == at else 99)):
                    cache.put(record)
            except WRITE_ERRORS:
                assert i == at
            else:
                committed[record.key] = record
            # Whatever happened, the file loads completely: exactly the
            # committed entries, never a torn intermediate.
            assert set(cache.load()) == set(committed)

    def test_corrupt_cache_quarantines_and_continues_empty(self,
                                                           tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        cache.put(_record("fp1"))
        cache.path.write_text("{not json")
        assert cache.load() == {}
        assert cache.path.with_name("t.json.corrupt").exists()
        cache.put(_record("fp2"))
        assert set(cache.load()) == {_record("fp2").key}


@pytest.mark.durability
class TestScenarioDurability:
    @given(kind=st.sampled_from(DISK_KINDS))
    @_SETTINGS
    def test_scenario_file_is_old_or_new(self, tmp_path_factory, kind):
        path = tmp_path_factory.mktemp("scen") / "s.json"
        old = Scenario(name="old", description="v1")
        new = Scenario(name="new", description="v2")
        save_scenario(path, old)
        with FAULTS.activate(_injector(kind)):
            with pytest.raises(WRITE_ERRORS):
                save_scenario(path, new)
        assert path.read_bytes() == canonical_bytes(old)
        assert load_scenario(path).name == "old"

    def test_corrupt_scenario_is_quarantined_and_typed(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(path, Scenario(name="s"))
        path.write_text('{"schema": "repro.scenario/1", "name"')
        with pytest.raises(CorruptScenario) as exc:
            load_scenario(path)
        assert exc.value.quarantined.name.endswith(".corrupt")
        assert not path.exists()


@pytest.mark.durability
class TestJournalDurability:
    @given(kinds=st.lists(st.sampled_from(DISK_KINDS), min_size=0,
                          max_size=4, unique=True),
           data=st.data())
    @_SETTINGS
    def test_replay_equals_the_acknowledged_appends(
            self, tmp_path_factory, kinds, data):
        """Whatever subset of appends a fault plan kills, the journal
        replays *exactly* the acknowledged records — no torn line ever
        surfaces as corruption, no acknowledged record is lost."""
        total = 8
        rules = tuple(
            FaultRule(kind=kind,
                          at=(data.draw(st.integers(min_value=2,
                                                    max_value=total + 1),
                                        label=kind),))
            for kind in kinds)
        journal = Journal(tmp_path_factory.mktemp("wal"),
                          fault_plan=FaultRules(rules=rules))
        journal.open()
        acknowledged = []
        for seq in range(1, total + 1):
            rec = {"t": "admit", "kind": "job", "seq": seq,
                   "job_id": f"t:j:{seq}", "tenant": "t", "name": "j"}
            try:
                journal.append(rec)
            except WRITE_ERRORS:
                continue
            acknowledged.append(rec)
        journal.close()
        replay = read_journal(journal.path)
        assert replay.records[1:] == acknowledged

        # And a reopened journal continues cleanly after any tear.
        journal2 = Journal(journal.directory)
        journal2.open()
        journal2.append({"t": "done", "job_id": "t:j:1"})
        journal2.close()
        assert read_journal(journal.path).records[1:] == \
            acknowledged + [{"t": "done", "job_id": "t:j:1"}]
