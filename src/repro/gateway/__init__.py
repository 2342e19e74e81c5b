"""repro.gateway — sharded multi-tenant serving over warm workers.

The serving tier's front end: a fixed pool of prespawned worker
processes (:mod:`repro.gateway.workers`, the codebase's only process
pool) that import the driver stack once and then serve many jobs, a
consistent-hash ring (:mod:`repro.gateway.ring`) that keeps
``(tenant, session)`` keys sticky to the worker holding their warm
state, admission control with per-tenant quotas and typed backpressure
(:mod:`repro.gateway.admission`), a job-lifecycle event bus
(:mod:`repro.gateway.events`), and a stdlib HTTP/JSON API
(:mod:`repro.gateway.http`, ``python -m repro.gateway serve``).

Durability rides underneath: with a ``journal_dir`` configured, every
submission is written ahead to an fsync'd, checksummed journal
(:mod:`repro.gateway.journal`), and a restarted gateway replays it
(:mod:`repro.gateway.recovery`) — requeueing every non-completed job in
admission order and answering repeated ``Idempotency-Key`` submissions
from the recorded results.  See ``docs/DURABILITY.md``.

The whole tier preserves the serving stack's core invariant: anything
served through the gateway — plain jobs and incremental session batches
alike, including work re-served by a crashed worker's replacement or
requeued by crash-restart recovery — is byte-identical to inline
:func:`repro.serve.pool.run_job`.
"""

from .admission import AdmissionController, TenantQuota
from .events import EVENTS, EventBus, wire_gauges
from .gateway import Gateway, GatewayConfig, JobHandle
from .http import make_server, serve_in_thread
from .journal import JOURNAL_SCHEMA, Journal, JournalReplay, read_journal
from .recovery import RecoveredState, recover_state
from .ring import HashRing, shard_key, stable_hash
from .workers import WarmWorker, WorkerPool, spool_name

__all__ = [
    "AdmissionController",
    "TenantQuota",
    "EVENTS",
    "EventBus",
    "wire_gauges",
    "Gateway",
    "GatewayConfig",
    "JobHandle",
    "make_server",
    "serve_in_thread",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalReplay",
    "read_journal",
    "RecoveredState",
    "recover_state",
    "HashRing",
    "shard_key",
    "stable_hash",
    "WarmWorker",
    "WorkerPool",
    "spool_name",
]
