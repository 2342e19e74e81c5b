"""Deterministic fault injection for the serving layer.

Production queues are tested by killing and delaying their workers; a
*reproduction* has the luxury of doing that deterministically.  A
:class:`FaultPlan` travels inside a :class:`~repro.serve.jobs.JobSpec`
(it is plain data, JSON- and pickle-able), and the worker materializes
it into a :class:`FaultInjector` for each attempt.  The injector is
installed in the :data:`JOB_FAULTS` slot for the dynamic extent of the
attempt — a :class:`~repro.vgpu.instrument.HookSlot`, like the device
hooks — and the job runner offers it the two hook sites:

* **job start** (every algorithm), and
* **round boundaries** (jobs driven through
  :func:`repro.core.engine.run_morph_rounds`, whose ``round_hook`` is
  the injection site), which is what lets a kill land *between* two
  checkpoints.

``kind="kill"`` raises :class:`FaultInjected`; ``kind="delay"`` sleeps
``delay_s`` wall-clock seconds (modeling a job stuck on an external
resource — a host transfer, a cold cache, an I/O stall) and continues.
Both fire only on the attempt numbers listed in ``attempts``, so a test
can kill attempt 1 and let the retry through.  Device and disk kinds
never fire at these job-level sites.

*Device* fault kinds (any of :data:`repro.vgpu.faults.FAULT_KINDS`:
``oom``, ``chunk_exhausted``, ``pool_exhausted``, ``kernel_abort``,
``slow_transfer``) fail the virtual device rather than the job: on the
listed attempts :meth:`FaultPlan.device_plan` materializes a
:class:`~repro.vgpu.faults.DeviceFaultPlan` that the worker installs
for the attempt.  With ``resilience`` enabled on the spec the driver
degrades gracefully and the digest stays byte-identical; without it
the typed :class:`repro.errors.ReproError` is a retryable job failure.

*Disk* fault kinds (any of :data:`DISK_KINDS`: ``torn_write``,
``enospc``, ``replace_crash``, ``fsync_lost``) fail the *storage*
under the job: every durable artifact write routed through
:mod:`repro.storage` (checkpoints, the tune cache, scenario files, the
gateway journal) is one fault site, counted deterministically and
fired by the same seeded splitmix64 machinery as
:mod:`repro.vgpu.faults` — so "the disk died under the checkpoint
spool" is as replayable as "the device OOMed on malloc 3".  A
:class:`DiskFaultInjector` is installed in the :data:`DISK_FAULTS`
slot (composing with the job-level one), either directly by a test, by
:mod:`repro.serve.pool` when a spec's ``fault`` envelope carries a disk
kind, or by the gateway journal for its own appends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..vgpu.faults import FAULT_KINDS as DEVICE_KINDS
from ..vgpu.faults import DeviceFaultPlan, DeviceFaultRule, _hash01
from ..vgpu.instrument import HookSlot

__all__ = ["DISK_FAULTS", "DISK_KINDS", "JOB_FAULTS", "DiskFaultInjector",
           "DiskFaultPlan", "DiskFaultRule", "FaultInjected",
           "FaultInjector", "FaultPlan"]

#: job-level kinds fired by :class:`FaultInjector` at job/round sites
_JOB_KINDS = ("kill", "delay")
#: disk-fault kinds fired at :mod:`repro.storage` write sites
DISK_KINDS = ("torn_write", "enospc", "replace_crash", "fsync_lost")


class FaultInjected(RuntimeError):
    """Raised by a ``kill`` fault; treated as a retryable job failure."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule for one job.

    ``attempts`` lists the 1-based attempt numbers the fault fires on
    (default: the first attempt only, so the retry succeeds).
    ``at_round`` of ``None`` fires at job start; a positive value fires
    at the top of that engine round (engine-driven jobs only — drivers
    without round hooks never reach round-granular sites).

    Device kinds use the device-side fields instead: ``at_event``
    (1-based device event indices) or ``rate`` + ``fault_seed``
    (counter-indexed deterministic firing), and ``kernel`` (a launch
    name or trailing-``*`` prefix for ``kernel_abort``).

    Disk kinds reuse ``at_event`` (1-based durable-write event indices)
    and ``rate`` + ``fault_seed``, plus ``path`` (a substring filter on
    the written file's path — ``".ckpt"`` targets the checkpoint spool,
    ``"wal"`` the journal).
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
        if self.kind not in _JOB_KINDS + DEVICE_KINDS + DISK_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))
        object.__setattr__(self, "at_event", tuple(int(a) for a in self.at_event))

    @property
    def is_device(self) -> bool:
        return self.kind in DEVICE_KINDS

    @property
    def is_disk(self) -> bool:
        return self.kind in DISK_KINDS

    def device_plan(self, attempt: int) -> DeviceFaultPlan | None:
        """The device-fault plan for ``attempt``, or ``None`` when this
        plan is job-level or does not fire on that attempt."""
        if not self.is_device or attempt not in self.attempts:
            return None
        return DeviceFaultPlan.of(DeviceFaultRule(
            kind=self.kind, at=self.at_event, rate=self.rate,
            seed=self.fault_seed, kernel=self.kernel,
            delay_s=self.delay_s))

    def disk_plan(self, attempt: int) -> "DiskFaultPlan | None":
        """The disk-fault plan for ``attempt``, or ``None`` when this
        plan is not disk-level or does not fire on that attempt."""
        if not self.is_disk or attempt not in self.attempts:
            return None
        return DiskFaultPlan.of(DiskFaultRule(
            kind=self.kind, at=self.at_event, rate=self.rate,
            seed=self.fault_seed, path=self.path))

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


@dataclass
class FaultInjector:
    """A :class:`FaultPlan` bound to one attempt of one job."""

    plan: FaultPlan
    attempt: int = 1
    #: how many times this injector actually fired (kill or delay)
    fired: int = field(default=0)

    def _due(self, round_: int | None) -> bool:
        if self.plan.kind not in _JOB_KINDS:
            return False    # device and disk faults fire in their own layers
        if self.attempt not in self.plan.attempts:
            return False
        return self.plan.at_round == round_

    def _fire(self) -> None:
        self.fired += 1
        if self.plan.kind == "delay":
            time.sleep(self.plan.delay_s)
            return
        raise FaultInjected(
            f"injected kill (attempt {self.attempt}, "
            f"round {self.plan.at_round})")

    def on_job_start(self) -> None:
        if self._due(None):
            self._fire()

    def on_round(self, round_: int) -> None:
        if self._due(round_):
            self._fire()


#: the innermost active job-level :class:`FaultInjector`
JOB_FAULTS = HookSlot()


# ------------------------------------------------------------------ #
# Disk faults (fired at repro.storage write sites)                     #
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class DiskFaultRule:
    """One seeded disk-fault rule.

    ``kind``
        One of :data:`DISK_KINDS`:

        * ``enospc`` — the temp write runs out of space: a partial temp
          file remains, the typed :class:`repro.errors.DiskFull` is
          raised, the published artifact is untouched;
        * ``torn_write`` — the process dies mid-write: torn bytes in the
          temp file, :class:`repro.errors.TornWrite` raised, published
          artifact untouched (fsync-before-rename keeps the tear off it);
        * ``replace_crash`` — the process dies between the fsync'd temp
          write and the publishing rename: a complete temp file remains,
          :class:`FaultInjected` raised, published artifact untouched;
        * ``fsync_lost`` — modeled power loss around the publish point.
          A writer that ordered its fsyncs loses only the rename (old
          version intact); a writer that skipped fsync (``fsync=False``)
          is left with **torn bytes at the published path** — the
          corruption the quarantine paths exist to catch.  Raises
          :class:`FaultInjected` either way.

    ``at``
        1-based durable-write event indices the rule fires on (the
        injector counts every :mod:`repro.storage` write it sees, in
        order).  Empty = use ``rate``.
    ``rate`` / ``seed``
        Deterministic splitmix64 firing exactly as in
        :class:`repro.vgpu.faults.DeviceFaultRule`: write event ``i``
        fires iff ``hash01(seed, kind, i) < rate``.
    ``path``
        Substring filter on the written file's path (``None`` = every
        write).  Filtered-out writes still advance the event counter, so
        adding a filter never re-times other rules.
    """

    kind: str
    at: tuple[int, ...] = ()
    rate: float = 0.0
    seed: int = 0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in DISK_KINDS:
            raise ValueError(
                f"unknown disk-fault kind {self.kind!r}; "
                f"known: {', '.join(DISK_KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        object.__setattr__(self, "at", tuple(int(a) for a in self.at))

    def fires(self, index: int) -> bool:
        """Does this rule fire on (1-based) write event ``index``?"""
        if self.at:
            return index in self.at
        if self.rate <= 0.0:
            return False
        return _hash01(self.seed, self.kind, index) < self.rate

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.at:
            d["at"] = list(self.at)
        if self.rate:
            d["rate"] = self.rate
        if self.seed:
            d["seed"] = self.seed
        if self.path is not None:
            d["path"] = self.path
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "DiskFaultRule":
        return cls(kind=d["kind"], at=tuple(d.get("at", ())),
                   rate=float(d.get("rate", 0.0)),
                   seed=int(d.get("seed", 0)),
                   path=d.get("path"))


@dataclass(frozen=True)
class DiskFaultPlan:
    """A set of :class:`DiskFaultRule`\\ s — one process's disk weather."""

    rules: tuple[DiskFaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def of(cls, *rules: DiskFaultRule) -> "DiskFaultPlan":
        return cls(rules=rules)

    def to_dict(self) -> dict:
        return {"rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "DiskFaultPlan":
        return cls(rules=tuple(DiskFaultRule.from_dict(r)
                               for r in d.get("rules", ())))

    def injector(self) -> "DiskFaultInjector":
        return DiskFaultInjector(self)


class DiskFaultInjector:
    """A :class:`DiskFaultPlan` bound to one run of durable writes.

    One monotonically increasing event counter covers every
    :mod:`repro.storage` write the injector observes; :meth:`on_write`
    returns the *kind* that fires on this event (first matching rule in
    plan order wins) or ``None``, and the storage layer acts it out at
    the right step of the temp-write/fsync/rename protocol.  Counters
    are the injector's own — create a fresh injector per attempt,
    exactly like :class:`FaultInjector`.
    """

    def __init__(self, plan: DiskFaultPlan) -> None:
        self.plan = plan
        self.writes = 0
        self.fired: dict[str, int] = dict.fromkeys(DISK_KINDS, 0)

    def on_write(self, path) -> str | None:
        """Advance the write counter for ``path``; the firing kind or
        ``None``."""
        self.writes += 1
        text = str(path)
        for rule in self.plan.rules:
            if rule.path is not None and rule.path not in text:
                continue
            if rule.fires(self.writes):
                self.fired[rule.kind] += 1
                return rule.kind
        return None


#: the innermost active :class:`DiskFaultInjector`
DISK_FAULTS = HookSlot()
