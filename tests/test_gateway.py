"""The :mod:`repro.gateway` gate.

Two layers, matching how the subsystem runs in CI:

* **Logic tests** (tier-1, no processes): consistent-hash ring
  determinism and placement stability, admission-control quota paths
  and ledger transitions, event-bus semantics, scheduler policy
  validation, the inline :class:`repro.serve.Scheduler` batch path,
  tenant-name validation, the multi-tenant checkpoint-spool isolation
  the warm workers rely on (no cross-prune, no cross-resume), and the
  worker's session body driven in-process (answered, applied and gap
  batches, and a replacement resuming from the spool).

* **Pool tests** (``--gateway``, spawn real warm workers): end-to-end
  digest identity against inline :func:`repro.serve.pool.run_job` over
  both the Python API and the HTTP front end, sticky session placement,
  the chaos path — kill a warm worker mid-session, after every reply,
  or while its replacement spawns, and assert the replacement resumes
  from the versioned spool with byte-identical digests and nothing
  lost — and the shutdown path, which must leave no collector thread
  and no worker process behind.
"""

from __future__ import annotations

import faulthandler
import http.client
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import AdmissionRejected, Overloaded, QuotaExceeded, SessionStateError
from repro.gateway import (EVENTS, AdmissionController, EventBus, Gateway,
                           GatewayConfig, HashRing, TenantQuota, shard_key,
                           spool_name, stable_hash, wire_gauges)
from repro.gateway.http import make_server, serve_in_thread
from repro.gateway.workers import _apply_session_batch
from repro.serve import CheckpointStore, Scheduler
from repro.serve.jobs import JobSpec
from repro.serve.pool import run_job
from repro.serve.scheduler import POLICIES
from repro.sessions import Session, SessionSpec

REPO = Path(__file__).resolve().parents[1]

JOB_SPECS = [
    JobSpec(name="sp-a", algorithm="sp",
            params={"num_vars": 30, "k": 3, "ratio": 3.0}, seed=3),
    JobSpec(name="pta-a", algorithm="pta",
            params={"num_vars": 40, "num_constraints": 80}, seed=5),
    JobSpec(name="mst-a", algorithm="mst",
            params={"num_nodes": 80, "num_edges": 240}, seed=7),
]

SESSION_SPEC = {"name": "mst-s", "algorithm": "mst",
                "params": {"num_nodes": 100, "num_edges": 400}, "seed": 9}
SESSION_BATCHES = [
    [{"op": "add_edges", "count": 4, "seed": 1}],
    [{"op": "reweight_edges", "count": 3, "seed": 2}],
    [{"op": "drop_edges", "count": 2, "seed": 3}],
    [{"op": "add_edges", "count": 3, "seed": 4}],
]

#: seconds one gateway reply may take in the kill tests before the run
#: counts as wedged (a warm reply takes well under a second)
REPLY_DEADLINE_S = 30


def session_stream(n: int) -> list:
    """``n`` deterministic MST delta batches cycling the three op kinds."""
    kinds = ("add_edges", "reweight_edges", "drop_edges")
    return [[{"op": kinds[i % 3], "count": 2 + i % 3, "seed": 100 + i}]
            for i in range(n)]


# --------------------------------------------------------------------- #
# Ring
# --------------------------------------------------------------------- #

class TestRing:
    def test_stable_hash_and_key_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")
        assert shard_key("t", "s") == "t/s"

    def test_placement_deterministic_and_order_independent(self):
        a = HashRing(["w0", "w1", "w2"], replicas=32)
        b = HashRing(replicas=32)
        for node in ("w2", "w0", "w1"):     # different insertion order
            b.add(node)
        keys = [f"tenant{i}/sess{i}" for i in range(200)]
        assert [a.place(k) for k in keys] == [b.place(k) for k in keys]

    def test_spread_covers_all_nodes(self):
        ring = HashRing(["w0", "w1", "w2", "w3"], replicas=64)
        keys = [f"t{i}/s{i}" for i in range(400)]
        spread = ring.spread(keys)
        assert set(spread) == {"w0", "w1", "w2", "w3"}
        assert min(spread.values()) > 0

    def test_removal_only_moves_keys_from_removed_node(self):
        ring = HashRing(["w0", "w1", "w2"], replicas=64)
        keys = [f"t{i}/s{i}" for i in range(300)]
        before = {k: ring.place(k) for k in keys}
        ring.remove("w1")
        after = {k: ring.place(k) for k in keys}
        for k in keys:
            if before[k] != "w1":
                assert after[k] == before[k], \
                    f"key {k} moved off a surviving node"
            else:
                assert after[k] != "w1"

    def test_replacement_keeps_arcs(self):
        # A replaced worker keeps its slot's node name, so placement
        # after heal is identical to placement before the crash.
        ring = HashRing(["w0", "w1"], replicas=64)
        keys = [f"t{i}/s{i}" for i in range(100)]
        before = [ring.place(k) for k in keys]
        ring.remove("w1")
        ring.add("w1")      # the deterministic replacement
        assert [ring.place(k) for k in keys] == before

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            HashRing().place("t/s")


# --------------------------------------------------------------------- #
# Admission
# --------------------------------------------------------------------- #

class TestAdmission:
    def test_unknown_tenant_rejected_without_default(self):
        ctl = AdmissionController({"acme": TenantQuota()})
        with pytest.raises(QuotaExceeded) as exc:
            ctl.admit("nobody")
        assert exc.value.reason == "unknown_tenant"
        assert exc.value.tenant == "nobody"
        # ... but a default quota admits anyone
        ctl = AdmissionController(default=TenantQuota())
        ctl.admit("nobody")

    def test_max_inflight_and_queue_depth(self):
        ctl = AdmissionController(
            {"t": TenantQuota(max_inflight=3, max_queued=2)})
        ctl.admit("t")
        ctl.admit("t")
        with pytest.raises(QuotaExceeded) as exc:
            ctl.admit("t")          # queued=2 hits max_queued first
        assert exc.value.reason == "queue_depth"
        ctl.started("t")            # queued=1 running=1
        ctl.admit("t")              # pending=3 now
        with pytest.raises(QuotaExceeded) as exc:
            ctl.admit("t")
        assert exc.value.reason == "max_inflight"
        ctl.release("t")            # a running job finished
        ctl.started("t")            # a queued one began executing
        ctl.admit("t")              # freed capacity readmits

    def test_cost_budget(self):
        ctl = AdmissionController(
            {"t": TenantQuota(max_inflight=10, max_queued=10,
                              cost_budget=100.0)})
        ctl.admit("t", cost=60.0)
        with pytest.raises(QuotaExceeded) as exc:
            ctl.admit("t", cost=50.0)
        assert exc.value.reason == "cost_budget"
        ctl.admit("t", cost=40.0)   # exactly at budget is fine
        ctl.release("t", cost=60.0)
        ctl.admit("t", cost=60.0)

    def test_global_backlog_bound(self):
        ctl = AdmissionController(default=TenantQuota(max_queued=50),
                                  max_total_pending=3)
        for tenant in ("a", "b", "c"):
            ctl.admit(tenant)
        with pytest.raises(Overloaded) as exc:
            ctl.admit("d")
        assert exc.value.reason == "queue_full"

    def test_draining_rejects_everything(self):
        ctl = AdmissionController(default=TenantQuota())
        ctl.drain()
        with pytest.raises(Overloaded) as exc:
            ctl.admit("t")
        assert exc.value.reason == "draining"

    def test_requeue_transition_and_snapshot(self):
        ctl = AdmissionController(default=TenantQuota())
        ctl.admit("t", cost=5.0)
        ctl.started("t")
        ctl.requeued("t")           # worker died; job back to queued
        snap = ctl.snapshot()["tenants"]["t"]
        assert (snap["queued"], snap["running"]) == (1, 0)
        ctl.release("t", cost=5.0)
        snap = ctl.snapshot()["tenants"]["t"]
        assert (snap["queued"], snap["running"], snap["finished"]) == \
            (0, 0, 1)
        assert snap["cost"] == 0.0

    def test_typed_hierarchy(self):
        # Both rejection types are AdmissionRejected and ReproError.
        assert issubclass(QuotaExceeded, AdmissionRejected)
        assert issubclass(Overloaded, AdmissionRejected)


# --------------------------------------------------------------------- #
# Event bus
# --------------------------------------------------------------------- #

class TestEventBus:
    def test_publish_order_counts_and_history(self):
        bus = EventBus(history=4)
        seen = []
        bus.subscribe(seen.append)
        for event in ("submitted", "started", "done", "submitted"):
            bus.publish(event, job_id="j1")
        assert [ev["event"] for ev in seen] == \
            ["submitted", "started", "done", "submitted"]
        assert [ev["seq"] for ev in seen] == [1, 2, 3, 4]
        assert bus.count("submitted") == 2
        assert len(bus.of("done")) == 1
        bus.publish("failed", job_id="j2")      # rolls history past 4
        assert len(bus.history) == 4
        assert bus.count("submitted") == 2      # counts are not bounded

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            EventBus().publish("exploded")
        assert "done" in EVENTS

    def test_unsubscribe_and_gauge_wiring(self):
        class FakeTracer:
            def __init__(self):
                self.gauges = {}

            def on_gauge(self, name, value):
                self.gauges[name] = value

        bus = EventBus()
        tracer = FakeTracer()
        wire_gauges(bus, tracer)
        bus.publish("submitted")
        bus.publish("submitted")
        assert tracer.gauges["gateway.events.submitted"] == 2
        fn = bus._subscribers[0]
        bus.unsubscribe(fn)
        bus.publish("submitted")
        assert tracer.gauges["gateway.events.submitted"] == 2


# --------------------------------------------------------------------- #
# Satellites: scheduler validation + the inline submit path
# --------------------------------------------------------------------- #

class TestSchedulerPolicy:
    def test_bad_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            Scheduler(policy="bogus")
        for policy in POLICIES:
            Scheduler(policy=policy)    # valid ones still construct

    def test_cli_exits_2_on_unknown_policy(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve",
             str(REPO / "examples" / "serve_jobs.json"),
             "--policy", "bogus"],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 2
        assert "bogus" in proc.stderr


class TestInlineScheduler:
    """The scheduler runs its batch inline through the same job body as
    :func:`run_job`, so a batch gives ``run_job``'s digests."""

    def test_batch_digests_match_run_job(self):
        records = Scheduler().run_batch(JOB_SPECS).records
        assert [r.result.digest for r in records] == \
            [run_job(s).result.digest for s in JOB_SPECS]


class TestTenantNames:
    """A tenant names a spool directory and prefixes spool files, so a
    name that could leave the spool or alias another tenant's files is
    refused before the gateway looks at anything else."""

    @pytest.mark.parametrize("tenant", ["../escaped", "/tmp/x", "", ".",
                                        "..", "a/b", "a-b"])
    def test_bad_tenant_rejected_before_start(self, tenant):
        gateway = Gateway(GatewayConfig(default_quota=TenantQuota()))
        with pytest.raises(ValueError, match="tenant"):
            gateway.submit(tenant, JOB_SPECS[0])
        with pytest.raises(ValueError, match="tenant"):
            gateway.session_batch(tenant, SESSION_SPEC, SESSION_BATCHES[0])
        with pytest.raises(ValueError, match="tenant"):
            gateway.close_session(tenant, SESSION_SPEC["name"])

    def test_bad_configured_tenant_rejected(self):
        with pytest.raises(ValueError, match="tenant"):
            Gateway(GatewayConfig(tenants={"a-b": TenantQuota()}))

    def test_good_tenant_reaches_the_start_check(self):
        gateway = Gateway(GatewayConfig(default_quota=TenantQuota()))
        with pytest.raises(Overloaded, match="not started"):
            gateway.submit("t0", JOB_SPECS[0])
        with pytest.raises(Overloaded, match="not started"):
            gateway.session_batch("t0", SESSION_SPEC, SESSION_BATCHES[0])
        with pytest.raises(Overloaded, match="not started"):
            gateway.close_session("t0", SESSION_SPEC["name"])


class TestJournalFaultConfig:
    def test_device_kind_fails_start_before_any_worker(self, tmp_path):
        gateway = Gateway(GatewayConfig(
            journal_dir=str(tmp_path / "journal"),
            journal_fault={"rules": [{"kind": "oom", "at": [1]}]}))
        with pytest.raises(ValueError, match="disk kind"):
            gateway.start()
        assert gateway.pool is None


# --------------------------------------------------------------------- #
# Satellite: multi-tenant checkpoint-spool isolation
# --------------------------------------------------------------------- #

class TestSpoolIsolation:
    def test_interleaved_versioned_writes_never_cross_prune(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_latest=2)
        a = spool_name("acme", "stream")
        b = spool_name("globex", "stream")
        assert a != b
        # Interleave versioned saves for two tenants' same-named session.
        for version in range(1, 6):
            store.save(a, {"tenant": "acme", "v": version}, version=version)
            if version <= 3:
                store.save(b, {"tenant": "globex", "v": version},
                           version=version)
        # keep-latest-2 pruned each spool independently ...
        assert store.versions(a) == [4, 5]
        assert store.versions(b) == [2, 3]
        # ... and each unversioned slot resumes its own tenant's latest.
        assert store.load(a) == {"tenant": "acme", "v": 5}
        assert store.load(b) == {"tenant": "globex", "v": 3}
        store.clear(a)
        assert store.load(a) is None
        assert store.load(b) == {"tenant": "globex", "v": 3}

    def test_two_tenant_sessions_resume_without_crossing(self, tmp_path):
        # Two tenants stream the same session *name* with different
        # content through one shared spool directory; each must resume
        # from its own checkpoint only.
        store = CheckpointStore(tmp_path, keep_latest=2)
        spec_a = SessionSpec.from_dict(SESSION_SPEC)
        spec_b = SessionSpec.from_dict({**SESSION_SPEC, "seed": 77})
        sessions = {"acme": Session.open(spec_a),
                    "globex": Session.open(spec_b)}
        digests = {"acme": [], "globex": []}
        for i, ops in enumerate(SESSION_BATCHES[:3], start=1):
            for tenant, session in sessions.items():
                digests[tenant].append(session.apply_batch(ops).digest)
                store.save(spool_name(tenant, "mst-s"),
                           session.checkpoint(), version=i)
        assert digests["acme"] != digests["globex"]
        for tenant, spec in (("acme", spec_a), ("globex", spec_b)):
            resumed = Session.open(
                spec, checkpoint=store.load(spool_name(tenant, "mst-s")))
            assert resumed.applied_batches == 3
            assert resumed.digest() == digests[tenant][-1]
        with pytest.raises(Exception):
            # Cross-resume is structurally refused: the other tenant's
            # checkpoint carries a different spec.
            Session.open(spec_a,
                         checkpoint=store.load(spool_name("globex",
                                                          "mst-s")))


class TestWorkerSessionBody:
    """The warm worker's session body, run in this process (no pool)."""

    @staticmethod
    def batch(index: int) -> dict:
        return {"tenant": "acme", "session": SESSION_SPEC,
                "batch_index": index, "ops": SESSION_BATCHES[index - 1]}

    def test_answers_applies_and_refuses_gaps(self, tmp_path):
        spool = CheckpointStore(tmp_path)
        name = spool_name("acme", SESSION_SPEC["name"])
        sessions: dict = {}
        applied = [_apply_session_batch(sessions, spool, self.batch(i))
                   for i in (1, 2)]
        assert [r["replayed"] for r in applied] == [False, False]
        assert [r["checkpointed"] for r in applied] == [True, True]
        assert spool.versions(name) == [1, 2]

        again = _apply_session_batch(sessions, spool, self.batch(2))
        assert again["replayed"] and not again["checkpointed"]
        assert again["applied_batches"] == 2
        assert again["result"] == applied[1]["result"]
        assert spool.versions(name) == [1, 2]

        with pytest.raises(SessionStateError,
                           match="expected batch 3, got 4"):
            _apply_session_batch(sessions, spool, self.batch(4))

        # A replacement worker starts with no warm sessions: it answers
        # batch 1 from the spool and applies batch 3 as inline would.
        replacement: dict = {}
        answered = _apply_session_batch(replacement, spool, self.batch(1))
        assert answered["replayed"]
        assert answered["result"] == applied[0]["result"]
        third = _apply_session_batch(replacement, spool, self.batch(3))
        assert not third["replayed"] and third["applied_batches"] == 3
        assert spool.versions(name) == [1, 2, 3]
        inline = Session.open(SessionSpec.from_dict(SESSION_SPEC))
        for ops in SESSION_BATCHES[:3]:
            inline.apply_batch(ops)
        assert third["result"] == inline.results[2].to_dict()


# --------------------------------------------------------------------- #
# Config plumbing
# --------------------------------------------------------------------- #

class TestConfig:
    def test_quota_roundtrip(self):
        q = TenantQuota(max_inflight=3, max_queued=7, cost_budget=12.5)
        assert TenantQuota.from_dict(q.to_dict()) == q
        assert "cost_budget" not in TenantQuota().to_dict()

    def test_gateway_config_from_dict(self):
        cfg = GatewayConfig.from_dict({
            "workers": 3, "replicas": 16, "max_total_pending": 9,
            "tenants": {"acme": {"max_inflight": 2}},
            "default_quota": {"max_queued": 4}})
        assert cfg.workers == 3
        assert cfg.tenants["acme"].max_inflight == 2
        assert cfg.default_quota.max_queued == 4

    def test_example_config_parses(self):
        data = json.loads(
            (REPO / "examples" / "gateway_tenants.json").read_text())
        cfg = GatewayConfig.from_dict(data["gateway"])
        assert set(cfg.tenants) == {"acme", "globex"}
        assert len(data["smoke"]["jobs"]) >= 3
        assert data["smoke"]["session"]["kill_after_batch"] >= 1


# --------------------------------------------------------------------- #
# Warm-pool end-to-end (opt-in: --gateway)
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def gateway():
    config = GatewayConfig(
        workers=2,
        tenants={"acme": TenantQuota(max_inflight=8, max_queued=16),
                 "globex": TenantQuota(max_inflight=8, max_queued=16)})
    with Gateway(config) as gw:
        yield gw


@pytest.mark.gateway
class TestGatewayEndToEnd:
    def test_job_digest_identity_across_tenants(self, gateway):
        handles = [gateway.submit(tenant, spec)
                   for spec in JOB_SPECS
                   for tenant in ("acme", "globex")]
        for handle in handles:
            handle.wait(300)
        inline = {s.name: run_job(s).result.digest for s in JOB_SPECS}
        for handle in handles:
            assert handle.ok, handle.error
            assert handle.digest() == inline[handle.name]

    def test_session_sticky_placement_and_digest(self, gateway):
        inline = Session.open(SessionSpec.from_dict(SESSION_SPEC))
        slots = set()
        for ops in SESSION_BATCHES[:3]:
            handle = gateway.session_batch("acme", SESSION_SPEC,
                                           ops).wait(300)
            slots.add(handle.slot)
            assert handle.ok, handle.error
            assert handle.digest() == inline.apply_batch(ops).digest
        assert len(slots) == 1, "session batches moved between slots"
        gateway.close_session("acme", SESSION_SPEC["name"]).wait(300)

    def test_session_identity_conflict_rejected(self, gateway):
        spec = {**SESSION_SPEC, "name": "conflict-s"}
        gateway.session_batch("acme", spec,
                              SESSION_BATCHES[0]).wait(300)
        with pytest.raises(ValueError, match="different spec"):
            gateway.session_batch("acme", {**spec, "seed": 99},
                                  SESSION_BATCHES[1])
        gateway.close_session("acme", "conflict-s").wait(300)

    def test_unknown_tenant_rejected_and_evented(self, gateway):
        before = gateway.bus.count("rejected")
        with pytest.raises(QuotaExceeded):
            gateway.submit("stranger", JOB_SPECS[0])
        assert gateway.bus.count("rejected") == before + 1

    def test_stats_shape(self, gateway):
        stats = gateway.stats()
        assert stats["workers"]["size"] == 2
        assert set(stats["ring"]["nodes"]) == {"w0", "w1"}
        assert "acme" in stats["admission"]["tenants"]


@pytest.mark.gateway
class TestGatewayHTTP:
    @pytest.fixture(scope="class")
    def conn(self, gateway):
        server = make_server(gateway)
        serve_in_thread(server)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=300)
        yield conn
        conn.close()
        server.shutdown()

    def _request(self, conn, method, path, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")

    def test_healthz(self, conn):
        status, body = self._request(conn, "GET", "/healthz")
        assert status == 200 and body["ok"]

    def test_submit_wait_and_result_roundtrip(self, conn):
        spec = JOB_SPECS[0]
        status, body = self._request(
            conn, "POST", "/v1/jobs?wait=1",
            {"tenant": "acme", "job": spec.to_dict()})
        assert status == 200
        assert body["status"] == "ok"
        assert body["digest"] == run_job(spec).result.digest
        status, again = self._request(
            conn, "GET", f"/v1/jobs/{body['job_id']}/result")
        assert status == 200 and again["digest"] == body["digest"]

    def test_unknown_job_404(self, conn):
        status, _ = self._request(conn, "GET", "/v1/jobs/nope:missing:0")
        assert status == 404

    def test_unknown_tenant_429(self, conn):
        status, body = self._request(
            conn, "POST", "/v1/jobs",
            {"tenant": "stranger", "job": JOB_SPECS[0].to_dict()})
        assert status == 429
        assert body["reason"] == "unknown_tenant"

    def test_malformed_envelope_400(self, conn):
        status, _ = self._request(conn, "POST", "/v1/jobs",
                                  {"tenant": "acme"})
        assert status == 400

    def test_bad_tenant_400(self, conn):
        status, body = self._request(
            conn, "POST", "/v1/jobs",
            {"tenant": "../escaped", "job": JOB_SPECS[0].to_dict()})
        assert status == 400 and "tenant" in body["error"]


@pytest.mark.gateway
class TestGatewayChaos:
    def test_kill_mid_session_resumes_byte_identical(self):
        config = GatewayConfig(
            workers=2, tenants={"acme": TenantQuota()})
        inline = Session.open(SessionSpec.from_dict(SESSION_SPEC))
        with Gateway(config) as gateway:
            for i, ops in enumerate(SESSION_BATCHES, start=1):
                handle = gateway.session_batch("acme", SESSION_SPEC,
                                               ops).wait(300)
                assert handle.ok, handle.error
                assert handle.digest() == inline.apply_batch(ops).digest
                if i == 2:
                    gateway.kill_worker(handle.slot)
            assert gateway.bus.count("worker_replaced") >= 1
            incarnations = {w.incarnation
                            for w in gateway.pool.workers.values()}
            assert max(incarnations) >= 2
            gateway.drain()
        assert gateway.bus.count("drained") == 1

    def test_kill_with_job_in_flight_requeues_and_matches(self):
        config = GatewayConfig(
            workers=1, tenants={"acme": TenantQuota(max_inflight=16,
                                                    max_queued=16)})
        specs = [JobSpec(name=f"mst-q{i}", algorithm="mst",
                         params={"num_nodes": 90, "num_edges": 270},
                         seed=40 + i) for i in range(4)]
        with Gateway(config) as gateway:
            handles = [gateway.submit("acme", s) for s in specs]
            gateway.kill_worker(0)      # queue is non-empty right now
            for handle in handles:
                handle.wait(300)
            assert gateway.bus.count("worker_replaced") >= 1
            for spec, handle in zip(specs, handles):
                assert handle.ok, handle.error
                assert handle.digest() == run_job(spec).result.digest

    def test_kill_after_every_reply_never_wedges(self):
        # A worker SIGKILLed right after it replied must not take the
        # reply path down with it: every later reply still arrives.
        config = GatewayConfig(workers=2, tenants={"acme": TenantQuota()})
        inline = Session.open(SessionSpec.from_dict(SESSION_SPEC))
        with Gateway(config) as gateway:
            try:
                for ops in session_stream(20):
                    # On a wedge, dump every thread's stack before the
                    # wait below gives up.
                    faulthandler.dump_traceback_later(REPLY_DEADLINE_S - 5)
                    handle = gateway.session_batch(
                        "acme", SESSION_SPEC, ops).wait(REPLY_DEADLINE_S)
                    assert handle.ok, handle.error
                    assert handle.digest() == inline.apply_batch(ops).digest
                    gateway.kill_worker(handle.slot)
            finally:
                faulthandler.cancel_dump_traceback_later()
            assert gateway.bus.count("worker_replaced") >= 19
            gateway.drain()

    def test_submit_racing_a_replacement_is_not_lost(self, monkeypatch):
        config = GatewayConfig(workers=1, tenants={"acme": TenantQuota()})
        spec = JOB_SPECS[2]
        with Gateway(config) as gateway:
            pool = gateway.pool
            spawn = pool._spawn
            spawning, sent = threading.Event(), threading.Event()

            def gated_spawn(slot, incarnation):
                if incarnation == 2:
                    # Hold the replacement back until the submission
                    # below went out: the race window, made wide.
                    spawning.set()
                    sent.wait(REPLY_DEADLINE_S)
                return spawn(slot, incarnation)

            monkeypatch.setattr(pool, "_spawn", gated_spawn)
            gateway.kill_worker(0)
            assert spawning.wait(REPLY_DEADLINE_S)
            handle = gateway.submit("acme", spec)
            sent.set()
            handle.wait(REPLY_DEADLINE_S)
            assert handle.ok, handle.error
            assert handle.digest() == run_job(spec).result.digest
            assert gateway.stats()["admission"]["total_pending"] == 0

    def test_submitters_racing_repeated_kills_lose_nothing(self):
        # More workers than cores, four submitting threads, a short
        # switch interval and kills throughout: every submission must
        # resolve correctly, with the ledger and the pool settled.
        config = GatewayConfig(
            workers=3, tenants={"acme": TenantQuota(max_inflight=32,
                                                    max_queued=32)})
        inline = {s.name: run_job(s).result.digest for s in JOB_SPECS}
        handles, lock = [], threading.Lock()

        def submitter(k):
            for i in range(6):
                handle = gateway.submit("acme", JOB_SPECS[(k + i) % 3])
                with lock:
                    handles.append(handle)
                time.sleep(0.005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Gateway(config) as gateway:
                threads = [threading.Thread(target=submitter, args=(k,))
                           for k in range(4)]
                for thread in threads:
                    thread.start()
                for kill in range(12):
                    gateway.kill_worker(kill % 3)
                    time.sleep(0.01)
                for thread in threads:
                    thread.join(REPLY_DEADLINE_S)
                    assert not thread.is_alive()
                assert len(handles) == 24
                for handle in handles:
                    handle.wait(REPLY_DEADLINE_S)
                    assert handle.ok, handle.error
                    assert handle.digest() == inline[handle.name]
                assert gateway.stats()["admission"]["total_pending"] == 0
                assert gateway.pool.outstanding_total() == 0
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.gateway
class TestGatewayShutdown:
    @staticmethod
    def _assert_nothing_left(gateway):
        assert not gateway._collector.is_alive()
        alive = [w.name for w in gateway.pool.workers.values()
                 if w.process.is_alive()]
        assert not alive, alive

    @pytest.mark.parametrize("how", ["drain", "stop"])
    def test_no_collector_or_worker_outlives_shutdown(self, how):
        config = GatewayConfig(workers=2, tenants={"acme": TenantQuota()})
        gateway = Gateway(config).start()
        try:
            assert gateway.submit("acme", JOB_SPECS[0]).wait(300).ok
            getattr(gateway, how)()
            self._assert_nothing_left(gateway)
        finally:
            gateway.stop()

    def test_replacement_spawned_during_stop_is_stopped(self, monkeypatch):
        config = GatewayConfig(workers=2, tenants={"acme": TenantQuota()})
        gateway = Gateway(config).start()
        pool = gateway.pool
        spawn = pool._spawn
        spawning = threading.Event()

        def gated_spawn(slot, incarnation):
            # Finish the replacement only after stop() marked the pool
            # stopping: the race window, made wide.
            spawning.set()
            deadline = time.monotonic() + REPLY_DEADLINE_S
            while not pool.workers[slot].stopping and \
                    time.monotonic() < deadline:
                time.sleep(0.001)
            return spawn(slot, incarnation)

        monkeypatch.setattr(pool, "_spawn", gated_spawn)
        try:
            gateway.kill_worker(0)
            assert spawning.wait(REPLY_DEADLINE_S)
            gateway.stop()
            self._assert_nothing_left(gateway)
        finally:
            gateway.stop()
