"""The fault plan a job carries.

Production queues are tested by killing and delaying their workers; a
*reproduction* has the luxury of doing that deterministically.  A
:class:`FaultPlan` travels inside a :class:`~repro.serve.jobs.JobSpec`
(it is plain data, JSON- and pickle-able).  The job body,
:func:`repro.serve.pool._execute_job`, builds one
:class:`~repro.vgpu.faults.FaultInjector` from it per attempt
(:meth:`FaultPlan.injector`), installs it in the
:data:`~repro.vgpu.instrument.FAULTS` slot for the attempt, and offers
it the job start and every round boundary.  So one plan means one
schedule: every event index counts from the attempt's start, whether
or not the spec enables ``resilience``.

The plan's ``kind`` picks the sites it fires at
(:mod:`repro.vgpu.faults` has the full vocabulary):

* ``kill`` / ``delay`` — the job start (``at_round`` of ``None``) or
  the top of engine round ``at_round`` (engine-driven jobs and
  sessions, whose batches are rounds), which is what lets a kill land
  *between* two checkpoints.  ``kill`` raises
  :class:`FaultInjected`; ``delay`` sleeps ``delay_s`` wall-clock
  seconds (a job stuck on a host transfer, a cold cache, an I/O stall)
  and continues.
* device kinds (``oom``, ``chunk_exhausted``, ``pool_exhausted``,
  ``kernel_abort``, ``slow_transfer``) fail the virtual device at
  device event ``at_event`` (or by ``rate`` + ``fault_seed``);
  ``kernel`` filters ``kernel_abort`` by launch name.  With
  ``resilience`` on the spec the driver degrades gracefully and the
  digest stays byte-identical; without it the typed
  :class:`repro.errors.ReproError` is a retryable job failure.
* disk kinds (:data:`DISK_KINDS`: ``torn_write``, ``enospc``,
  ``replace_crash``, ``fsync_lost``) fail the durable write
  ``at_event`` of the attempt — checkpoints, the tune cache — and
  ``path`` filters by a substring of the written path (``".ckpt"``
  targets the checkpoint spool).

Every kind fires only on the attempt numbers listed in ``attempts``, so
a test can fail attempt 1 and let the retry through.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..vgpu.faults import (DISK_KINDS, FAULT_KINDS, JOB_KINDS,
                           FaultInjected, FaultInjector, FaultRule,
                           FaultRules)

__all__ = ["DISK_KINDS", "FaultInjected", "FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule for one job.

    ``attempts`` lists the 1-based attempt numbers the fault fires on
    (default: the first attempt only, so the retry succeeds).
    ``at_round`` of ``None`` fires a ``kill``/``delay`` at job start; a
    positive value fires at the top of that engine round.

    Device and disk kinds use the event fields instead: ``at_event``
    (1-based event indices) or ``rate`` + ``fault_seed``
    (counter-indexed deterministic firing), plus ``kernel`` (a launch
    name or trailing-``*`` prefix for ``kernel_abort``) and ``path`` (a
    substring of the written file's path for disk kinds).
    """

    kind: str = "kill"          # "kill" | "delay" | a device/disk kind
    attempts: tuple[int, ...] = (1,)
    at_round: int | None = None
    delay_s: float = 0.0
    #: device/disk kinds: 1-based event indices of the kind's counter
    at_event: tuple[int, ...] = ()
    #: device/disk kinds: deterministic firing rate in [0, 1]
    rate: float = 0.0
    #: seeds the rate hash (NOT any run RNG)
    fault_seed: int = 0
    #: ``kernel_abort``: launch-name filter (trailing ``*`` = prefix)
    kernel: str | None = None
    #: disk kinds: substring filter on the written file's path
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))
        object.__setattr__(self, "at_event", tuple(int(a) for a in self.at_event))

    def injector(self, attempt: int) -> FaultInjector | None:
        """Attempt ``attempt``'s injector, or ``None`` when the plan
        does not fire on that attempt."""
        if attempt not in self.attempts:
            return None
        # A job kind's event is its round; round 0 is the job start.
        at = ((self.at_round or 0,) if self.kind in JOB_KINDS
              else self.at_event)
        return FaultRules.of(FaultRule(
            kind=self.kind, at=at, rate=self.rate, seed=self.fault_seed,
            kernel=self.kernel, delay_s=self.delay_s,
            path=self.path)).injector()

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "attempts": list(self.attempts),
             "at_round": self.at_round, "delay_s": self.delay_s}
        if self.at_event:
            d["at_event"] = list(self.at_event)
        if self.rate:
            d["rate"] = self.rate
        if self.fault_seed:
            d["fault_seed"] = self.fault_seed
        if self.kernel is not None:
            d["kernel"] = self.kernel
        if self.path is not None:
            d["path"] = self.path
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(kind=d.get("kind", "kill"),
                   attempts=tuple(d.get("attempts", (1,))),
                   at_round=d.get("at_round"),
                   delay_s=float(d.get("delay_s", 0.0)),
                   at_event=tuple(d.get("at_event", ())),
                   rate=float(d.get("rate", 0.0)),
                   fault_seed=int(d.get("fault_seed", 0)),
                   kernel=d.get("kernel"),
                   path=d.get("path"))
