"""Crash-restart recovery: fold a journal back into gateway state.

:func:`recover_state` is a pure fold over the record stream
:func:`repro.gateway.journal.read_journal` replays — no I/O, no
gateway, so the recovery semantics are testable in isolation.  The
gateway applies the result inside :meth:`repro.gateway.Gateway.start`:

* the submission **sequence** resumes past every journaled job id (the
  sequence number is the id's last ``:``-separated field), so new job
  ids never collide with recovered ones — including a session close's,
  whose id only its ``done`` record carries;
* every admitted-but-not-completed **plain job** is requeued in its
  original admission order, with its original id and spec —
  re-execution is deterministic, so the digest a client eventually
  reads is byte-identical to an uninterrupted run;
* for every still-open **session**, *all* journaled batches are
  requeued in index order (not just the unfinished tail): batches the
  worker already applied before the crash answer idempotently from the
  resumed checkpoint's recorded results, and batches whose application
  died with the worker — or whose newest checkpoint version was torn
  and quarantined — are re-applied deterministically.  Either way the
  stream continues with no gap and no double-application of effects;
* **completed** submissions are not re-run: their recorded ``done``
  payloads seed the idempotency table, so a client repeating a
  ``Idempotency-Key`` after the restart gets the recorded result back
  without executing anything;
* a ``session_close`` record drops the session and its batch history —
  closed sessions do not resurrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RecoveredState", "recover_state"]


@dataclass
class RecoveredState:
    """The fold of one journal, ready to apply to a fresh gateway."""

    #: first sequence number new submissions may use
    next_seq: int = 1
    #: admit records of plain jobs with no ``done`` yet, admission order
    pending_jobs: list = field(default_factory=list)
    #: job_id -> recorded ``done`` payload (the handle's ``to_dict``)
    completed: dict = field(default_factory=dict)
    #: (tenant, idempotency_key) -> job_id
    idempotency: dict = field(default_factory=dict)
    #: (tenant, session_name) -> {"spec": ..., "next_index": int}
    sessions: dict = field(default_factory=dict)
    #: (tenant, session_name) -> every batch admit record, index order
    #: (open sessions only: its keys are a subset of ``sessions``)
    session_batches: dict = field(default_factory=dict)
    #: total records folded (including the header)
    records: int = 0
    #: the journal ended in a torn tail (crash mid-append)
    torn_tail: bool = False


def recover_state(records, *, torn_tail: bool = False) -> RecoveredState:
    """Fold journal ``records`` (in file order) into a
    :class:`RecoveredState`."""
    state = RecoveredState(torn_tail=torn_tail)
    jobs: dict[str, dict] = {}          # job_id -> admit rec, insert order
    for rec in records:
        state.records += 1
        job_id = rec.get("job_id")
        if job_id is not None:
            state.next_seq = max(state.next_seq,
                                 int(job_id.rsplit(":", 1)[1]) + 1)
        t = rec.get("t")
        if t == "admit":
            key = rec.get("key")
            if key is not None:
                state.idempotency[(rec["tenant"], key)] = job_id
            if rec["kind"] == "session_batch":
                skey = (rec["tenant"], rec["name"])
                state.session_batches.setdefault(skey, []).append(rec)
                sess = state.sessions.setdefault(
                    skey, {"spec": rec["session"], "next_index": 1})
                sess["next_index"] = max(sess["next_index"],
                                         int(rec["batch_index"]) + 1)
            else:
                jobs[job_id] = rec
        elif t == "done":
            jobs.pop(job_id, None)
            state.completed[job_id] = rec.get("result", {})
        elif t == "session_close":
            # Closed sessions stay dead: their batches are not requeued.
            skey = (rec["tenant"], rec["name"])
            state.sessions.pop(skey, None)
            state.session_batches.pop(skey, None)
        # "dispatch" and "checkpoint" records (older journals only)
        # carry no other state: dispatch targets are recomputed from the
        # ring and checkpoints live in the spool.
    state.pending_jobs = list(jobs.values())
    return state
