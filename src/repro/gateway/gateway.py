"""The gateway: sharded multi-tenant serving over a warm worker pool.

This is the policy layer that turns the mechanism modules into a
service front end:

* :class:`~repro.gateway.admission.AdmissionController` decides whether
  a submission may exist (typed 429/503 rejections);
* :class:`~repro.gateway.ring.HashRing` decides *where* it runs —
  ``(tenant, session_id)`` keys stick to slots, so consecutive batches
  of one session always hit the worker holding its warm
  :class:`repro.sessions.Session` state and checkpoint spool;
* :class:`~repro.gateway.workers.WorkerPool` executes, and the
  gateway's collector thread turns its workers' replies into resolved
  :class:`JobHandle`\\ s, admission releases, and
  :class:`~repro.gateway.events.EventBus` lifecycle events;
* worker death (crash or chaos :meth:`Gateway.kill_worker`) reads as
  EOF on its reply pipe, after its last reply, and is healed inline:
  the slot is respawned deterministically (same ring arc, next
  incarnation) and every unresolved message is requeued in its
  original send order — plain jobs re-execute (deterministic by
  construction), session batches resume from the newest readable
  version in the checkpoint spool and answer idempotently;
* with a ``journal_dir`` configured, every submission is written ahead
  to the :class:`~repro.gateway.journal.Journal` (admit and done, plus
  session_close), so death of the *gateway process itself* is
  survivable: :meth:`Gateway.start` replays the journal through
  :func:`~repro.gateway.recovery.recover_state`, rebuilds the
  admission ledger and session table, requeues every non-completed
  submission in admission order — through the same admit-record send
  path a live submission takes — and answers repeated
  ``Idempotency-Key`` submissions from the recorded results instead of
  re-executing.

Digest identity is the invariant everything above preserves: a job
served through the gateway runs the *same* ``_execute_job`` body as
inline :func:`repro.serve.pool.run_job`, and a session batch applies
through the same :class:`~repro.sessions.Session` delta planners — so
results are byte-identical to inline replay, which the smoke step and
the test suite assert end to end.  The pool is the only place the
codebase runs jobs in worker processes.
"""

from __future__ import annotations

import itertools
import re
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path

from ..errors import Overloaded, StorageFault
from ..serve.jobs import JobSpec, estimate_cost
from ..sessions.spec import SessionSpec
from ..vgpu.faults import FaultInjected, FaultRules
from .admission import AdmissionController, TenantQuota
from .events import EventBus, wire_gauges
from .journal import Journal
from .recovery import RecoveredState, recover_state
from .ring import HashRing, shard_key
from .workers import WarmWorker, WorkerPool

__all__ = ["Gateway", "GatewayConfig", "JobHandle"]

#: A tenant names a spool directory and prefixes spool file names, so it
#: may hold no path separator, no dot and no ``-`` (``spool_name`` joins
#: tenant and session with ``--``, and a dash could alias two pairs).
_TENANT_NAME = re.compile(r"[A-Za-z0-9_]+")


def _check_tenant(tenant) -> None:
    if not isinstance(tenant, str) or not _TENANT_NAME.fullmatch(tenant):
        raise ValueError(f"tenant must match [A-Za-z0-9_]+, got {tenant!r}")


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway deployment shape (plain, JSON-able data)."""

    workers: int = 2
    replicas: int = 64
    max_total_pending: int = 256
    tenants: dict = field(default_factory=dict)     # name -> TenantQuota
    default_quota: TenantQuota | None = None
    checkpoint_dir: str | None = None
    start_method: str | None = None
    #: write-ahead journal directory (None = no durability; the
    #: gateway then neither survives restarts nor answers
    #: ``Idempotency-Key`` repeats across them)
    journal_dir: str | None = None
    #: deterministic disk weather for the journal's appends
    #: (a :class:`~repro.vgpu.faults.FaultRules` dict)
    journal_fault: dict | None = None
    #: resolved handles retained for idempotency/result lookups; the
    #: oldest are evicted beyond this bound (recorded ``done`` journal
    #: records outlive the eviction — they are just no longer answered
    #: from memory)
    max_done_handles: int = 4096

    @classmethod
    def from_dict(cls, d) -> "GatewayConfig":
        default = d.get("default_quota")
        return cls(
            workers=int(d.get("workers", 2)),
            replicas=int(d.get("replicas", 64)),
            max_total_pending=int(d.get("max_total_pending", 256)),
            tenants={name: TenantQuota.from_dict(q)
                     for name, q in d.get("tenants", {}).items()},
            default_quota=(TenantQuota.from_dict(default)
                           if default is not None else None),
            checkpoint_dir=d.get("checkpoint_dir"),
            start_method=d.get("start_method"),
            journal_dir=d.get("journal_dir"),
            journal_fault=d.get("journal_fault"),
            max_done_handles=int(d.get("max_done_handles", 4096)),
        )


@dataclass
class JobHandle:
    """The caller's future for one admitted submission."""

    job_id: str
    tenant: str
    kind: str                       # "job"|"session_batch"|"session_close"
    name: str                       # spec/session name
    slot: int
    cost: float = 0.0
    status: str = "queued"          # queued|running|ok|failed
    #: the pool's :class:`~repro.serve.pool.JobRecord` (plain jobs)
    record: object | None = None
    #: the worker's reply dict (session batches)
    payload: dict | None = None
    error: str | None = None
    retries: int = 0
    #: whether this handle holds an admission reservation (session
    #: closes do not; releasing one would corrupt the ledger)
    admitted: bool = True
    #: answered from a recorded outcome (``Idempotency-Key`` repeat or
    #: a post-recovery lookup) — nothing executed for this handle
    replay: bool = False
    submitted_at: float = 0.0
    started_at: float | None = None
    done_at: float | None = None
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_s(self) -> float:
        """Submit-to-done seconds (NaN until resolved)."""
        if self.done_at is None:
            return float("nan")
        return self.done_at - self.submitted_at

    def wait(self, timeout: float | None = None) -> "JobHandle":
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"{self.job_id} not done after {timeout}s "
                f"(status {self.status!r})")
        return self

    def digest(self) -> str | None:
        """The result digest, whatever kind of work this was."""
        if self.record is not None and self.record.result is not None:
            return self.record.result.digest
        if self.payload is not None:
            result = self.payload.get("result")
            if result:
                return result.get("digest")
        return None

    def to_dict(self) -> dict:
        d = {"job_id": self.job_id, "tenant": self.tenant,
             "kind": self.kind, "name": self.name, "slot": self.slot,
             "status": self.status, "retries": self.retries,
             "digest": self.digest(), "error": self.error}
        if self.replay:
            d["idempotent"] = True
        if self.done_at is not None:
            d["latency_s"] = self.latency_s
        record = self.record
        if record is not None:
            d["attempts"] = record.attempts
            d["resumed_round"] = record.resumed_round
            d["degraded"] = record.degraded
            d["failures"] = list(record.failures)
            if record.result is not None:
                d["summary"] = dict(record.result.summary)
        if self.payload is not None:
            d["batch"] = self.payload.get("result")
            d["replayed"] = self.payload.get("replayed", False)
        return d


class Gateway:
    """Sharded, quota-guarded serving over prespawned warm workers."""

    def __init__(self, config: GatewayConfig | dict | None = None, *,
                 tracer=None) -> None:
        if config is None:
            config = GatewayConfig()
        elif isinstance(config, dict):
            config = GatewayConfig.from_dict(config)
        for tenant in config.tenants:
            _check_tenant(tenant)
        self.config = config
        self.bus = EventBus()
        self.tracer = tracer
        if tracer is not None:
            wire_gauges(self.bus, tracer)
        self.admission = AdmissionController(
            config.tenants, default=config.default_quota,
            max_total_pending=config.max_total_pending)
        self.pool: WorkerPool | None = None
        self.ring = HashRing(replicas=config.replicas)
        self._handles: dict[str, JobHandle] = {}
        self._sessions: dict[tuple[str, str], dict] = {}
        self.journal: Journal | None = None
        #: job_id -> recorded ``done`` payload, oldest first (bounded
        #: by ``config.max_done_handles``)
        self._completed: OrderedDict[str, dict] = OrderedDict()
        #: (tenant, idempotency key) -> job_id
        self._idem: dict[tuple[str, str], str] = {}
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._ready = threading.Event()
        self._collector: threading.Thread | None = None
        self._tmp_spool: tempfile.TemporaryDirectory | None = None

    # ------------------------------------------------------------- #
    # Lifecycle                                                      #
    # ------------------------------------------------------------- #

    def start(self, timeout: float = 120.0) -> "Gateway":
        """Prespawn the pool, build the ring, start the collector, and
        block until every worker finished warm-up."""
        if self.pool is not None:
            return self
        # Built before any worker spawns, so a bad journal_fault fails
        # here with nothing to clean up; opened once the pool is warm.
        journal = None
        if self.config.journal_dir is not None:
            fault = (FaultRules.from_dict(self.config.journal_fault)
                     if self.config.journal_fault else None)
            journal = Journal(self.config.journal_dir, fault_plan=fault)
        checkpoint_dir = self.config.checkpoint_dir
        if checkpoint_dir is None:
            self._tmp_spool = tempfile.TemporaryDirectory(
                prefix="repro-gateway-spool-")
            checkpoint_dir = self._tmp_spool.name
        self.checkpoint_dir = str(Path(checkpoint_dir))
        self.pool = WorkerPool(self.config.workers,
                               checkpoint_dir=self.checkpoint_dir,
                               start_method=self.config.start_method)
        for node in self.pool.nodes():
            self.ring.add(node)
        self._collector = threading.Thread(target=self._collect,
                                           name="gateway-collector",
                                           daemon=True)
        self._collector.start()
        if not self._ready.wait(timeout):
            self.stop()
            raise TimeoutError(f"workers not warm after {timeout}s")
        if journal is not None:
            self.journal = journal
            replay = journal.open()
            if replay.records:
                self._recover(recover_state(replay.records,
                                            torn_tail=replay.torn_tail))
        return self

    def _recover(self, state: RecoveredState) -> None:
        """Apply a :class:`~repro.gateway.recovery.RecoveredState`:
        resume the sequence, seed the idempotency/result tables, and
        requeue every non-completed submission in admission order.
        Requeued work re-enters admission through
        :meth:`~repro.gateway.admission.AdmissionController.readmit`
        (quota checks were passed before the crash; recovery must not
        re-judge them)."""
        self._seq = itertools.count(state.next_seq)
        with self._lock:
            self._completed = OrderedDict(state.completed)
            self._idem = dict(state.idempotency)
            for skey, sess in state.sessions.items():
                self._sessions[skey] = {"spec": sess["spec"],
                                        "next_index": sess["next_index"]}
        # Pending plain jobs first, then every open session's whole
        # journaled batch stream: already-applied batches answer
        # idempotently from the resumed checkpoint's recorded results,
        # lost ones (including a newest checkpoint version that was torn
        # and quarantined) re-apply deterministically — no gap, no
        # double effect.
        pending = state.pending_jobs + [
            rec for recs in state.session_batches.values() for rec in recs]
        for rec in pending:
            cost = float(rec.get("cost", 0.0))
            self.admission.readmit(rec["tenant"], cost)
            slot = self._slot(rec["tenant"], rec.get("shard") or rec["name"])
            handle = self._register(rec["tenant"], rec["kind"], rec["name"],
                                    slot, cost, job_id=rec["job_id"])
            self._send(handle, rec)
        self.bus.publish("recovered", records=state.records,
                         requeued=len(pending),
                         completed=len(state.completed),
                         sessions=len(state.sessions),
                         torn_tail=state.torn_tail)
        self._gauge_depth()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def drain(self, timeout: float = 60.0) -> None:
        """Refuse new work, wait for the backlog, stop workers cleanly."""
        self.admission.drain()
        deadline = time.monotonic() + timeout
        while self.pool.outstanding_total() > 0:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{self.pool.outstanding_total()} jobs still "
                    f"outstanding after {timeout}s drain budget")
            time.sleep(0.02)
        self.pool.drain(timeout=max(1.0, deadline - time.monotonic()))
        self.bus.publish("drained", workers=self.pool.size)
        self._shutdown_collector()

    def stop(self) -> None:
        """Hard stop: terminate workers, join the collector."""
        if self.pool is not None:
            self.pool.stop()
        self._shutdown_collector()
        if self.journal is not None:
            self.journal.close()
        if self._tmp_spool is not None:
            self._tmp_spool.cleanup()
            self._tmp_spool = None

    def _shutdown_collector(self) -> None:
        # The collector returns once every worker's reply pipe closed.
        if self._collector is not None:
            self._collector.join(timeout=5.0)

    # ------------------------------------------------------------- #
    # Submission                                                     #
    # ------------------------------------------------------------- #

    def _admit(self, tenant: str, cost: float, *, name: str):
        try:
            self.admission.admit(tenant, cost)
        except Exception as exc:
            self.bus.publish("rejected", tenant=tenant, name=name,
                             reason=getattr(exc, "reason", "rejected"))
            raise

    def _slot(self, tenant: str, key: str) -> int:
        """The ring slot ``(tenant, key)`` sticks to."""
        return self.pool.slot_of(self.ring.place(shard_key(tenant, key)))

    def _register(self, tenant: str, kind: str, name: str, slot: int,
                  cost: float, *, admitted: bool = True,
                  job_id: str | None = None) -> JobHandle:
        if job_id is None:
            # The recovery fold reads the sequence back from this id.
            job_id = f"{tenant}:{name}:{next(self._seq)}"
        handle = JobHandle(job_id=job_id, tenant=tenant, kind=kind,
                          name=name, slot=slot, cost=cost,
                          admitted=admitted,
                          submitted_at=time.monotonic())
        with self._lock:
            self._handles[job_id] = handle
        return handle

    def _send(self, handle: JobHandle, rec: dict) -> None:
        """Queue the work admit record ``rec`` describes on the handle's
        slot — the one path for live submissions and recovered
        requeues alike."""
        if handle.kind == "job":
            work = {"spec": rec["spec"]}
        else:
            work = {"session": rec["session"], "ops": rec["ops"],
                    "batch_index": int(rec["batch_index"])}
        self.pool.send(handle.slot, {
            "type": handle.kind, "job_id": handle.job_id,
            "tenant": handle.tenant, "submitted_at": handle.submitted_at,
            **work})

    # -- write-ahead journal --------------------------------------- #

    def _journal_append(self, rec: dict, *, critical: bool = False) -> None:
        """Append ``rec``; non-critical failures (``done`` and
        ``session_close``) are absorbed (the journal repairs itself
        before the next append), critical ones (admit records — the
        durability promise itself) surface as a retryable
        :class:`~repro.errors.Overloaded`."""
        if self.journal is None:
            return
        try:
            self.journal.append(rec)
        except (StorageFault, FaultInjected, OSError) as exc:
            if critical:
                raise Overloaded(
                    f"journal append failed; submission not durable "
                    f"({type(exc).__name__}: {exc})",
                    tenant=rec.get("tenant", "?"),
                    reason="journal") from exc
        else:
            if self.tracer is not None:
                self.tracer.on_gauge("gateway.journal.records",
                                     self.journal.records_written)
                self.tracer.on_gauge("gateway.journal.bytes",
                                     self.journal.bytes_written)

    def _journal_admit(self, handle: JobHandle, *, key: str | None,
                       **payload) -> dict:
        """Journal ``handle``'s admit record and return it."""
        rec = {"t": "admit", "kind": handle.kind,
               "job_id": handle.job_id, "tenant": handle.tenant,
               "name": handle.name, "cost": handle.cost, **payload}
        if key is not None:
            rec["key"] = key
        self._journal_append(rec, critical=True)
        return rec

    # -- idempotency ------------------------------------------------ #

    def _idempotent(self, tenant: str,
                    key: str | None) -> JobHandle | None:
        """The previously recorded handle for ``(tenant, key)``, live
        or synthesized from its journaled outcome; ``None`` on a fresh
        key."""
        if key is None:
            return None
        with self._lock:
            job_id = self._idem.get((tenant, key))
            if job_id is None:
                return None
            handle = self._handles.get(job_id)
            done = self._completed.get(job_id)
        if handle is None and done is None:
            return None
        if handle is None:
            handle = self._synthesize(done)
        self.bus.publish("replayed", tenant=tenant, job_id=job_id,
                         key=key, status=handle.status)
        return handle

    def _synthesize(self, done: dict) -> JobHandle:
        """A resolved :class:`JobHandle` rebuilt from a recorded
        ``done`` payload (journal recovery, or after eviction)."""
        handle = JobHandle(
            job_id=done["job_id"], tenant=done.get("tenant", "?"),
            kind=done.get("kind", "job"), name=done.get("name", "?"),
            slot=int(done.get("slot", -1)),
            status=done.get("status", "ok"), admitted=False, replay=True)
        handle.error = done.get("error")
        handle.retries = int(done.get("retries", 0))
        if done.get("batch") is not None:
            handle.payload = {"result": done["batch"],
                              "replayed": True}
        elif done.get("digest") is not None:
            handle.payload = {"result": {"digest": done["digest"],
                                         "summary": done.get("summary")}}
        handle._done.set()
        return handle

    def _record_done(self, handle: JobHandle) -> None:
        """Journal the outcome and retain it for idempotency answers,
        evicting the oldest resolved handles beyond the bound."""
        done = handle.to_dict()
        self._journal_append({"t": "done", "job_id": handle.job_id,
                              "result": done})
        with self._lock:
            self._completed[handle.job_id] = done
            evicted = set()
            while len(self._completed) > self.config.max_done_handles:
                job_id, _ = self._completed.popitem(last=False)
                evicted.add(job_id)
            for job_id in evicted:
                self._handles.pop(job_id, None)
            if evicted:
                for k in [k for k, v in self._idem.items()
                          if v in evicted]:
                    del self._idem[k]

    def submit(self, tenant: str, spec: JobSpec | dict, *,
               key: str | None = None,
               idempotency_key: str | None = None) -> JobHandle:
        """Admit and dispatch one job; returns immediately.

        ``key`` overrides the sharding key (default: the spec name), so
        related jobs can be co-located deliberately.

        ``idempotency_key`` makes the submission safe to repeat: a
        repeat (same tenant, same key — live, completed, or recovered
        from the journal after a restart) returns the original
        submission's handle or its recorded outcome instead of
        executing again.
        """
        _check_tenant(tenant)
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        if self.pool is None:
            raise Overloaded("gateway is not started", tenant=tenant,
                             reason="draining")
        existing = self._idempotent(tenant, idempotency_key)
        if existing is not None:
            return existing
        cost = estimate_cost(spec)
        self._admit(tenant, cost, name=spec.name)
        slot = self._slot(tenant, key or spec.name)
        handle = self._register(tenant, "job", spec.name, slot, cost)
        try:
            rec = self._journal_admit(handle, key=idempotency_key,
                                      spec=spec.to_dict(), shard=key)
        except Overloaded:
            with self._lock:
                self._handles.pop(handle.job_id, None)
            self.admission.release(tenant, cost)
            raise
        if idempotency_key is not None:
            with self._lock:
                self._idem[(tenant, idempotency_key)] = handle.job_id
        self._send(handle, rec)
        self.bus.publish("submitted", tenant=tenant, job_id=handle.job_id,
                         name=spec.name, slot=slot, kind="job")
        self._gauge_depth()
        return handle

    def submit_batch(self, tenant: str, specs) -> list[JobHandle]:
        """Admit and dispatch a list of jobs (all-or-each: a rejection
        midway leaves earlier submissions running)."""
        return [self.submit(tenant, spec) for spec in specs]

    def session_batch(self, tenant: str, session: SessionSpec | dict,
                      ops, *, idempotency_key: str | None = None
                      ) -> JobHandle:
        """Stream one mutation batch into a sticky warm session.

        ``session`` is the session's *identity* — its
        :class:`~repro.sessions.SessionSpec` fields minus any batch
        stream (batches ride in ``ops``, one call per batch, in
        order).  The first call cold-opens the session on its ring
        slot; later calls must present the same identity.

        ``idempotency_key`` works as in :meth:`submit`: repeating a
        batch submission under the same key returns the recorded batch
        result (and consumes no stream index) instead of re-applying.
        """
        _check_tenant(tenant)
        if isinstance(session, dict):
            session = SessionSpec.from_dict(session)
        if session.batches:
            # The stream arrives call-by-call; a spec-embedded batch
            # list would make the identity drift batch to batch.
            session = SessionSpec.from_dict(
                {**session.to_dict(), "batches": []})
        if self.pool is None:
            raise Overloaded("gateway is not started", tenant=tenant,
                             reason="draining")
        existing = self._idempotent(tenant, idempotency_key)
        if existing is not None:
            return existing
        base = JobSpec(name=session.name, algorithm=session.algorithm,
                       params=session.params, strategy=session.strategy,
                       seed=session.seed)
        cost = 0.25 * estimate_cost(base)
        self._admit(tenant, cost, name=session.name)
        skey = (tenant, session.name)
        with self._lock:
            state = self._sessions.get(skey)
            if state is None:
                state = {"spec": session.to_dict(), "next_index": 1}
                self._sessions[skey] = state
            elif state["spec"] != session.to_dict():
                msg = (f"session {session.name!r} of tenant {tenant!r} "
                       f"was opened with a different spec; close it "
                       f"before reusing the name")
                self.admission.release(tenant, cost)
                raise ValueError(msg)
            index = state["next_index"]
            state["next_index"] += 1
        slot = self._slot(tenant, session.name)
        handle = self._register(tenant, "session_batch", session.name,
                                slot, cost)
        try:
            rec = self._journal_admit(handle, key=idempotency_key,
                                      session=state["spec"],
                                      ops=[dict(op) for op in ops],
                                      batch_index=index)
        except Overloaded:
            with self._lock:
                self._handles.pop(handle.job_id, None)
                if state["next_index"] == index + 1:
                    state["next_index"] = index    # give the slot back
            self.admission.release(tenant, cost)
            raise
        if idempotency_key is not None:
            with self._lock:
                self._idem[(tenant, idempotency_key)] = handle.job_id
        self._send(handle, rec)
        self.bus.publish("submitted", tenant=tenant, job_id=handle.job_id,
                         name=session.name, slot=slot, kind="session_batch",
                         batch=index)
        self._gauge_depth()
        return handle

    def close_session(self, tenant: str, name: str) -> JobHandle:
        """Discard a session's warm state and spool history."""
        _check_tenant(tenant)
        if self.pool is None:
            raise Overloaded("gateway is not started", tenant=tenant,
                             reason="draining")
        with self._lock:
            self._sessions.pop((tenant, name), None)
        self._journal_append({"t": "session_close", "tenant": tenant,
                              "name": name})
        slot = self._slot(tenant, name)
        handle = self._register(tenant, "session_close", name, slot, 0.0,
                                admitted=False)
        self.pool.send(slot, {"type": "session_close",
                              "job_id": handle.job_id, "tenant": tenant,
                              "session": name})
        return handle

    # ------------------------------------------------------------- #
    # Introspection / health                                         #
    # ------------------------------------------------------------- #

    def handle(self, job_id: str) -> JobHandle | None:
        with self._lock:
            handle = self._handles.get(job_id)
            done = self._completed.get(job_id) if handle is None else None
        if handle is None and done is not None:
            # Evicted or recovered-from-journal: resurrect the recorded
            # outcome as a resolved handle.
            return self._synthesize(done)
        return handle

    def kill_worker(self, slot: int) -> None:
        """Chaos hook: SIGKILL one warm worker.  The collector detects
        the death, replaces the slot deterministically, and requeues its
        unresolved work."""
        self.pool.kill(slot)

    def stats(self) -> dict:
        pool = self.pool
        journal = (self.journal.stats() if self.journal is not None
                   else None)
        return {
            "journal": journal,
            "workers": {
                "size": pool.size if pool else 0,
                "alive": sum(w.alive for w in pool.workers.values())
                if pool else 0,
                "incarnations": {w.node: w.incarnation
                                 for w in pool.workers.values()}
                if pool else {},
            },
            "ring": {"nodes": self.ring.nodes(),
                     "replicas": self.ring.replicas},
            "admission": self.admission.snapshot(),
            "events": self.bus.snapshot(),
            "sessions": sorted(f"{t}/{s}" for t, s in self._sessions),
        }

    def _gauge_depth(self) -> None:
        if self.tracer is not None:
            self.tracer.on_gauge("gateway.pending",
                                 self.admission.pending())

    # ------------------------------------------------------------- #
    # Collector                                                      #
    # ------------------------------------------------------------- #

    def _collect(self) -> None:
        # Route replies until every reply pipe has closed.  A pipe reads
        # EOF (or OSError, if a kill tore the last reply) only after its
        # worker exited and all it sent was read, so a heal loses none.
        while True:
            live = {w.reply: w for w in self.pool.workers.values()
                    if not w.reply.closed}
            if not live:
                return
            for reply in wait(list(live)):
                try:
                    msg = reply.recv()
                except (EOFError, OSError):
                    reply.close()
                    if not live[reply].stopping:
                        self._heal(live[reply].slot)
                    continue
                self._dispatch(live[reply], msg)

    def _dispatch(self, worker: WarmWorker, msg: dict) -> None:
        mtype = msg["type"]
        slot = worker.slot
        if mtype == "ready":
            worker.ready = True
            worker.warm_s = msg["warm_s"]
            self.bus.publish("worker_spawned", slot=slot,
                             incarnation=worker.incarnation,
                             warm_s=worker.warm_s)
            if self.pool.all_ready():
                self._ready.set()
            return
        handle = self.handle(msg["job_id"])
        if mtype == "started":
            handle.status = "running"
            handle.started_at = time.monotonic()
            if handle.admitted:
                self.admission.started(handle.tenant)
            self.bus.publish("started", tenant=handle.tenant,
                             job_id=handle.job_id, slot=slot)
            return
        if mtype == "done":
            if msg.get("kind") == "job":
                record = msg["record"]
                handle.record = record
                if record.degraded:
                    self.bus.publish("degraded", tenant=handle.tenant,
                                     job_id=handle.job_id,
                                     events=len(record.resilience_events))
                self._resolve(handle, slot,
                              "ok" if record.ok else "failed")
            elif msg.get("kind") == "session_batch":
                handle.payload = {k: v for k, v in msg.items()
                                  if k not in ("type", "kind", "job_id")}
                if msg.get("checkpointed"):
                    self.bus.publish("checkpointed", tenant=handle.tenant,
                                     job_id=handle.job_id,
                                     session=msg.get("session"),
                                     batch=msg.get("applied_batches"))
                self._resolve(handle, slot, "ok")
            else:                                   # session_close
                self._resolve(handle, slot, "ok")
            return
        if mtype == "error":
            handle.error = msg.get("error", "unknown worker error")
            self._resolve(handle, slot, "failed")

    def _resolve(self, handle: JobHandle, slot: int, status: str) -> None:
        self.pool.resolve(slot, handle.job_id)
        handle.status = status
        handle.done_at = time.monotonic()
        # WAL discipline: the outcome is journaled (and the admission
        # reservation freed) *before* the waiter wakes — a client that
        # observed completion must find it durable, and must find the
        # ledger already settled.
        self._record_done(handle)
        if handle.admitted:
            self.admission.release(handle.tenant, handle.cost)
        handle._done.set()
        self.bus.publish("done" if status == "ok" else "failed",
                         tenant=handle.tenant, job_id=handle.job_id,
                         slot=slot, latency_s=handle.latency_s)
        self._gauge_depth()
        if self.tracer is not None:
            self.tracer.on_gauge("gateway.latency_s", handle.latency_s)

    def _heal(self, slot: int) -> None:
        dead = self.pool.workers[slot]
        self.bus.publish("worker_exit", slot=slot,
                         incarnation=dead.incarnation, node=dead.node)
        replacement, orphans = self.pool.replace(slot)
        self.bus.publish("worker_replaced", slot=slot,
                         incarnation=replacement.incarnation,
                         node=replacement.node)
        for msg in orphans:
            handle = self.handle(msg["job_id"])
            if handle.status == "running" and handle.admitted:
                self.admission.requeued(handle.tenant)
            handle.status = "queued"
            handle.retries += 1
            self.bus.publish("retried", tenant=handle.tenant,
                             job_id=handle.job_id, slot=slot,
                             incarnation=replacement.incarnation)
