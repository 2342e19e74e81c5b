"""Prespawned, persistent warm workers over stdlib queues and pipes.

This is the codebase's only process pool; :mod:`repro.serve` runs its
batches inline.  It keeps a fixed set of **slots**, each owned by one
long-lived worker process that imports the driver stack once during
warm-up and then serves many jobs — the fork-ahead/prespawn pattern of
production serving tiers.

The protocol is deliberately dumb: dicts in, dicts out.

Parent -> worker (per-slot ``inbox`` queue, FIFO — which is what makes
session batches apply in submission order on their sticky slot):

* ``{"type": "job", "job_id", "tenant", "spec", "submitted_at"}`` —
  one :class:`~repro.serve.jobs.JobSpec` dict, executed by the *same*
  :func:`repro.serve.pool._execute_job` body that inline
  :func:`~repro.serve.pool.run_job` runs, so digests are byte-identical
  by construction;
* ``{"type": "session_batch", ...}`` — one mutation batch for a warm
  :class:`repro.sessions.Session` (opened cold on first touch, resumed
  from the newest readable version in the checkpoint spool after a
  crash, and kept warm in-process between batches);
* ``{"type": "session_close"}``, ``{"type": "stop"}``.

Worker -> parent (a ``reply`` pipe per worker incarnation, written only
by that worker): ``ready`` (warm-up finished; carries how long warm-up
took, which is exactly the latency a warm pool saves per job),
``started``, ``done``, ``error``.  No lock is shared across processes,
so a killed worker cannot block another's replies, and its pipe reads
EOF — the death signal — only after every reply it sent was read.

**Deterministic replacement.**  A worker is addressed by its slot's
stable node name (``"w3"``); a crashed worker's replacement is a pure
function of ``(slot, incarnation + 1)`` — same node name, same ring
arc, same checkpoint spool — so placement after a replacement is
deterministic and sticky sessions resume exactly where their
predecessor's spool left off.

**Idempotent session batches.**  Each batch carries its 1-based
``batch_index``, and :meth:`repro.sessions.Session.recorded` is the one
idempotency rule.  A worker that resumed from a checkpoint written
*after* the batch applied but *before* the reply was sent answers from
the session's recorded results instead of applying twice — that is the
at-least-once-delivery seam the crash-requeue path relies on.  A gap
raises :class:`~repro.errors.SessionStateError`; only an applied batch
spools a checkpoint.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..core.engine import EngineCheckpoint
from ..serve.checkpoint import CheckpointStore
from ..serve.jobs import known_algorithms
from ..serve.pool import _execute_job

__all__ = ["WarmWorker", "WorkerPool", "spool_name"]


def spool_name(tenant: str, session_id: str) -> str:
    """The checkpoint-spool job name for one tenant's session.

    Prefixed with the tenant so two tenants' identically named sessions
    get disjoint spool histories (the cross-prune/cross-resume hazard
    the spool tests pin down).
    """
    return f"{tenant}--{session_id}"


# ------------------------------------------------------------------ #
# Worker process body                                                 #
# ------------------------------------------------------------------ #

def _warm_up(algorithms) -> float:
    """Import the driver stack once; returns warm-up seconds."""
    from ..serve.jobs import get_adapter

    t0 = time.monotonic()
    for algo in algorithms:
        get_adapter(algo)
    return time.monotonic() - t0


def _open_session(sessions: dict, spool, msg: dict):
    from ..sessions import Session, SessionSpec

    tenant = msg["tenant"]
    sspec = SessionSpec.from_dict(msg["session"])
    key = (tenant, sspec.name)
    session = sessions.get(key)
    if session is not None:
        return key, session
    loaded = (spool.load_latest(spool_name(tenant, sspec.name))
              if spool is not None else None)
    checkpoint = loaded if isinstance(loaded, EngineCheckpoint) else None
    session = Session.open(sspec, checkpoint=checkpoint)
    sessions[key] = session
    return key, session


def _apply_session_batch(sessions: dict, spool, msg: dict) -> dict:
    tenant = msg["tenant"]
    key, session = _open_session(sessions, spool, msg)
    result = session.recorded(int(msg["batch_index"]))
    replayed = result is not None
    if not replayed:
        result = session.apply_batch(msg["ops"])
        if spool is not None:
            spool.save(spool_name(tenant, key[1]), session.checkpoint(),
                       version=session.applied_batches)
    return {"tenant": tenant, "session": key[1],
            "applied_batches": session.applied_batches,
            "checkpointed": spool is not None and not replayed,
            "replayed": replayed, "result": result.to_dict()}


def _worker_main(inbox, reply, checkpoint_dir: str | None,
                 warm_algorithms) -> None:
    """The long-lived worker loop (module-level so ``spawn`` pickles it)."""
    warm_s = _warm_up(warm_algorithms)
    reply.send({"type": "ready", "warm_s": warm_s})
    sessions: dict = {}
    spool = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    while True:
        msg = inbox.get()
        mtype = msg.get("type")
        if mtype == "stop":
            return
        job_id = msg.get("job_id")
        reply.send({"type": "started", "job_id": job_id})
        try:
            if mtype == "job":
                # Per-tenant spool subdirectory: two tenants running
                # identically named jobs must never share (or
                # cross-resume) a checkpoint slot.
                job_spool = (os.path.join(checkpoint_dir, msg["tenant"])
                             if checkpoint_dir else None)
                record = _execute_job(msg["spec"], job_spool,
                                      msg["submitted_at"])
                reply.send({"type": "done", "kind": "job",
                            "job_id": job_id, "record": record})
            elif mtype == "session_batch":
                batch = _apply_session_batch(sessions, spool, msg)
                reply.send({"type": "done", "kind": "session_batch",
                            "job_id": job_id, **batch})
            elif mtype == "session_close":
                key = (msg["tenant"], msg["session"])
                sessions.pop(key, None)
                if spool is not None:
                    spool.clear(spool_name(*key))
                reply.send({"type": "done", "kind": "session_close",
                            "job_id": job_id})
            else:
                reply.send({"type": "error", "job_id": job_id,
                            "error": f"unknown message type {mtype!r}"})
        except Exception as exc:    # process boundary: report, keep serving
            reply.send({"type": "error", "job_id": job_id,
                        "error": f"{type(exc).__name__}: {exc}"})


# ------------------------------------------------------------------ #
# Parent-side pool                                                    #
# ------------------------------------------------------------------ #

@dataclass
class WarmWorker:
    """The parent's handle on one slot's live worker process."""

    slot: int
    incarnation: int
    process: mp.process.BaseProcess
    inbox: object
    #: the read end of this incarnation's reply pipe
    reply: object
    #: sent-but-unresolved messages in send order — exactly what a
    #: replacement worker must be re-sent after a crash
    outstanding: OrderedDict = field(default_factory=OrderedDict)
    ready: bool = False
    stopping: bool = False
    warm_s: float = 0.0

    @property
    def node(self) -> str:
        """The stable ring identity (survives replacement)."""
        return f"w{self.slot}"

    @property
    def name(self) -> str:
        return f"w{self.slot}#{self.incarnation}"

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """A fixed set of slots, each backed by one warm worker process.

    The pool only moves messages and processes; *policy* (placement,
    admission, retry bookkeeping) lives in
    :class:`repro.gateway.gateway.Gateway`, whose collector thread is
    the only reader of the reply pipes.  Inboxes are unbounded queues
    because admission control bounds what may enter them.
    """

    def __init__(self, size: int = 2, *, checkpoint_dir: str | None = None,
                 start_method: str | None = None) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.ctx = mp.get_context(start_method)
        self.checkpoint_dir = checkpoint_dir
        # Listing the algorithms imports every driver here, in the
        # parent, so workers started by ``fork`` inherit the imports.
        self.warm_algorithms = tuple(known_algorithms())
        #: orders :meth:`send` and stopping against :meth:`replace`'s swap
        self._lock = threading.Lock()
        self.workers: dict[int, WarmWorker] = {}
        for slot in range(size):
            self.workers[slot] = self._spawn(slot, 1)

    # -- lifecycle -------------------------------------------------- #

    def _spawn(self, slot: int, incarnation: int) -> WarmWorker:
        inbox = self.ctx.Queue()
        reply, reply_end = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_worker_main, name=f"gateway-w{slot}#{incarnation}",
            args=(inbox, reply_end, self.checkpoint_dir,
                  self.warm_algorithms),
            daemon=True)
        process.start()
        # The worker is now the pipe's only writer, so its exit reads as
        # EOF (a copy kept here would also leak into the next fork).
        reply_end.close()
        return WarmWorker(slot=slot, incarnation=incarnation,
                          process=process, inbox=inbox, reply=reply)

    def replace(self, slot: int) -> tuple[WarmWorker, list[dict]]:
        """Replace a dead slot deterministically.

        The replacement is a pure function of ``(slot, incarnation+1)``
        — same node name, same spool.  The dead worker's outstanding
        messages move to it in send order, under the lock :meth:`send`
        takes, so a racing submission queues behind them; they are
        returned for the caller's retry bookkeeping.
        """
        dead = self.workers[slot]
        replacement = self._spawn(slot, dead.incarnation + 1)
        with self._lock:
            orphans = list(dead.outstanding.values())
            for msg in orphans:
                replacement.outstanding[msg["job_id"]] = msg
                replacement.inbox.put(msg)
            replacement.stopping = dead.stopping
            self.workers[slot] = replacement
        if replacement.stopping:    # drain/stop began while it spawned
            replacement.process.terminate()
        return replacement, orphans

    def kill(self, slot: int) -> None:
        """Hard-kill one worker (chaos testing; SIGKILL, no cleanup)."""
        self.workers[slot].process.kill()

    def _stopping(self) -> list[WarmWorker]:
        """Mark every worker stopping; a later replacement inherits it."""
        with self._lock:
            for worker in self.workers.values():
                worker.stopping = True
            return list(self.workers.values())

    def drain(self, timeout: float = 30.0) -> None:
        """Stop every worker after its queue empties; join processes.

        Callers should wait for outstanding work to settle first (the
        gateway does); any message still queued behind the ``stop``
        sentinel is never read.
        """
        workers = self._stopping()
        for worker in workers:
            worker.inbox.put({"type": "stop"})
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(timeout=max(0.0,
                                            deadline - time.monotonic()))

    def stop(self) -> None:
        """Terminate everything now (no drain)."""
        workers = self._stopping()
        for worker in workers:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=5.0)

    # -- messaging -------------------------------------------------- #

    def send(self, slot: int, msg: dict) -> None:
        """Enqueue ``msg`` on ``slot``'s inbox, tracking it until
        resolved (``job_id``-carrying messages only)."""
        with self._lock:
            worker = self.workers[slot]
            job_id = msg.get("job_id")
            if job_id is not None:
                worker.outstanding[job_id] = msg
            worker.inbox.put(msg)

    def resolve(self, slot: int, job_id: str) -> None:
        """Mark ``job_id`` finished on ``slot`` (done/error received)."""
        self.workers[slot].outstanding.pop(job_id, None)

    # -- health ----------------------------------------------------- #

    @property
    def size(self) -> int:
        return len(self.workers)

    def nodes(self) -> list[str]:
        """Stable ring node names, one per slot."""
        return [w.node for w in self.workers.values()]

    def slot_of(self, node: str) -> int:
        return int(node[1:])

    def all_ready(self) -> bool:
        return all(w.ready for w in self.workers.values())

    def outstanding_total(self) -> int:
        return sum(len(w.outstanding) for w in self.workers.values())
