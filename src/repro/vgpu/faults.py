"""Deterministic fault injection: one injector, three families of sites.

The paper's §7 strategies exist to survive device failure; a
reproduction also has to show that its serving stack survives a killed
job and a dying disk.  This module fails all three, deterministically:

* **job sites** — the job start and every engine round boundary
  (:func:`repro.serve.pool._execute_job` offers both): ``kill`` raises
  :class:`FaultInjected`, ``delay`` sleeps ``delay_s`` wall seconds;
* **device sites** — the ``fault_*`` functions of
  :mod:`repro.vgpu.instrument`: allocator OOM, §7.1 chunk-pool
  exhaustion, §7.2 recycle-pool exhaustion, transient kernel aborts
  and slow host transfers, each raising its typed
  :class:`repro.errors.DeviceFault` (or sleeping);
* **disk sites** — every durable write in :mod:`repro.storage` and
  every gateway journal append: torn writes, ENOSPC, a crash before
  the publishing rename, and power loss around it.  The writer acts
  the fired kind out at the protocol step it models.

A :class:`FaultRules` is plain, seeded data (JSON- and pickle-able)
and binds to one run as a :class:`FaultInjector`, which sits in the
:data:`repro.vgpu.instrument.FAULTS` slot for the run's dynamic
extent.  :mod:`repro.serve.pool` installs one per job attempt, built
from the spec's :class:`repro.serve.faults.FaultPlan`; nothing else
installs one.

Determinism is the whole design: a fault fires as a pure function of
the rules and the injector's own event counters — *which* malloc,
*which* launch of *which* kernel, *which* durable write, *which* round
— never of wall-clock time or any shared RNG.  ``rate``-based rules
use a counter-indexed hash (splitmix64 finalizer) of ``(seed, kind,
event index)``, so the same rules fail the same events on every run,
and a run whose faults are all absorbed by :mod:`repro.resilience`
produces a byte-identical result digest.

Example::

    rules = FaultRules.of(
        FaultRule("kernel_abort", kernel="dmr.round", at=(2,)),
        FaultRule("oom", rate=0.05, seed=7),
    )
    with rules.injector().activate() as inj, Resilience().activate():
        refine_gpu(mesh, cfg)
    assert inj.fired["kernel_abort"] == 1
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import (ChunkPoolExhausted, KernelAborted, OutOfDeviceMemory,
                      RecyclePoolExhausted)
from . import instrument

__all__ = ["DEVICE_KINDS", "DISK_KINDS", "FAULT_KINDS", "JOB_KINDS",
           "FaultInjected", "FaultInjector", "FaultRule", "FaultRules"]

#: job-site kinds: event 0 is the job start, event ``r`` engine round r
JOB_KINDS = ("kill", "delay")
#: device-site kinds, one per ``fault_*`` function
DEVICE_KINDS = ("oom", "chunk_exhausted", "pool_exhausted",
                "kernel_abort", "slow_transfer")
#: disk-site kinds, fired at durable writes
DISK_KINDS = ("torn_write", "enospc", "replace_crash", "fsync_lost")
FAULT_KINDS = JOB_KINDS + DEVICE_KINDS + DISK_KINDS


class FaultInjected(RuntimeError):
    """Raised by a ``kill`` fault, or by a disk fault that models the
    process dying; treated as a retryable job failure."""


def _hash01(seed: int, kind: str, index: int) -> float:
    """Deterministic uniform-ish value in [0, 1) for event ``index``.

    A splitmix64 finalizer over (seed, kind, index) — no RNG object, no
    shared state, so rate-based rules cannot perturb the run's own
    random stream.  ``kind`` is folded with crc32 (NOT ``hash()``,
    whose per-process salt would make worker processes disagree).
    """
    x = (seed * 0x9E3779B97F4A7C15 + zlib.crc32(kind.encode())
         + index * 0xBF58476D1CE4E5B9)
    x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x / 2.0 ** 64


@dataclass(frozen=True)
class FaultRule:
    """One seeded fault rule.

    ``kind``
        One of :data:`FAULT_KINDS`.
    ``at``
        Event indices the rule fires on, counted per kind (and per
        kernel name when ``kernel`` is set) from 1 for device kinds,
        over every durable write from 1 for disk kinds, and by round
        for job kinds (0 is the job start).  Empty = use ``rate``.
    ``rate`` / ``seed``
        Probability-like deterministic firing rate in [0, 1]; event
        ``i`` fires iff ``hash01(seed, kind, i) < rate``.
    ``kernel``
        For ``kernel_abort``: only launches whose name equals (or, with
        a trailing ``*``, starts with) this string are counted/failed.
    ``delay_s``
        For ``delay`` and ``slow_transfer``: wall seconds to sleep per
        firing.
    ``path``
        For disk kinds: substring filter on the written file's path
        (``None`` = every write).  Filtered-out writes still advance
        the write counter, so a filter never re-times another rule.
    """

    kind: str
    at: tuple[int, ...] = ()
    rate: float = 0.0
    seed: int = 0
    kernel: str | None = None
    delay_s: float = 0.0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        object.__setattr__(self, "at", tuple(int(a) for a in self.at))

    def fires(self, index: int) -> bool:
        """Does this rule fire on event ``index`` of its kind?"""
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
        if self.kernel is not None:
            d["kernel"] = self.kernel
        if self.delay_s:
            d["delay_s"] = self.delay_s
        if self.path is not None:
            d["path"] = self.path
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "FaultRule":
        return cls(kind=d["kind"], at=tuple(d.get("at", ())),
                   rate=float(d.get("rate", 0.0)),
                   seed=int(d.get("seed", 0)),
                   kernel=d.get("kernel"),
                   delay_s=float(d.get("delay_s", 0.0)),
                   path=d.get("path"))


@dataclass(frozen=True)
class FaultRules:
    """A set of :class:`FaultRule`\\ s — one run's weather."""

    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def of(cls, *rules: FaultRule) -> "FaultRules":
        return cls(rules=rules)

    def to_dict(self) -> dict:
        return {"rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "FaultRules":
        return cls(rules=tuple(FaultRule.from_dict(r)
                               for r in d.get("rules", ())))

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """A :class:`FaultRules` bound to one run.

    The client of the :data:`~repro.vgpu.instrument.FAULTS` slot.  Its
    hooks are the sites' vocabulary:

    * ``on_job_start`` / ``on_round`` — the job start and a round
      boundary: may raise :class:`FaultInjected` or sleep;
    * ``on_malloc`` — a :class:`~repro.vgpu.memory.DeviceAllocator`
      request (and driver-level array growth): may raise
      :class:`~repro.errors.OutOfDeviceMemory`;
    * ``on_chunk_alloc`` — the §7.1 Kernel-Only chunk pool handing out
      a fresh chunk: may raise :class:`~repro.errors.ChunkPoolExhausted`;
    * ``on_pool_release`` — the §7.2 recycle free-list absorbing
      deleted slots: may raise :class:`~repro.errors.RecyclePoolExhausted`;
    * ``on_kernel_launch`` — a named launch about to start: may raise
      :class:`~repro.errors.KernelAborted` (the retryable transient);
    * ``on_transfer`` — a host<->device copy of ``words`` words: may
      sleep (slow-PCIe modeling) but never raises;
    * ``on_write`` — a durable write of ``path``: returns the disk kind
      that fires on it (first matching rule wins) or ``None``.

    A hook never mutates device state or draws from a shared RNG, so a
    run whose faults are all absorbed stays byte-identical to a
    fault-free one.  The event counters — per device kind, per kernel
    filter, and one over all durable writes — are the injector's own;
    ``fired`` tallies what actually went off, per kind, for assertions
    and gauges.
    """

    def __init__(self, rules: FaultRules) -> None:
        self.rules = rules
        self.events: dict[str, int] = dict.fromkeys(DEVICE_KINDS, 0)
        self.kernel_events: dict[str, int] = {}
        self.writes = 0
        self.fired: dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)

    def activate(self):
        """Install this injector in the ``FAULTS`` slot."""
        return instrument.FAULTS.activate(self)

    # -- bookkeeping ----------------------------------------------- #

    def _rules(self, kinds: tuple[str, ...]) -> Iterable[FaultRule]:
        return (r for r in self.rules.rules if r.kind in kinds)

    def _bump(self, kind: str) -> int:
        self.events[kind] += 1
        return self.events[kind]

    def _note_fired(self, kind: str) -> None:
        self.fired[kind] += 1
        instrument.trace_gauge(f"faults.{kind}", self.fired[kind])

    def _device_event(self, kind: str) -> int | None:
        """Count one event of device ``kind``; its index if a rule
        fires on it, else ``None``."""
        idx = self._bump(kind)
        if any(rule.fires(idx) for rule in self._rules((kind,))):
            self._note_fired(kind)
            return idx
        return None

    # -- job sites -------------------------------------------------- #

    def on_job_start(self) -> None:
        self._job_site(0)

    def on_round(self, round_: int) -> None:
        self._job_site(round_)

    def _job_site(self, round_: int) -> None:
        for rule in self._rules(JOB_KINDS):
            if rule.fires(round_):
                self._note_fired(rule.kind)
                if rule.kind == "kill":
                    where = f"round {round_}" if round_ else "job start"
                    raise FaultInjected(f"injected kill at {where}")
                time.sleep(rule.delay_s)

    # -- device sites ----------------------------------------------- #

    def on_malloc(self, nbytes: int) -> None:
        idx = self._device_event("oom")
        if idx is not None:
            raise OutOfDeviceMemory(
                f"injected device OOM (malloc event {idx}, "
                f"{nbytes} bytes)", requested=nbytes, unit="bytes",
                injected=True)

    def on_chunk_alloc(self) -> None:
        idx = self._device_event("chunk_exhausted")
        if idx is not None:
            raise ChunkPoolExhausted(
                f"injected chunk-pool exhaustion (chunk event {idx})",
                requested=1, available=0, unit="chunks", injected=True)

    def on_pool_release(self, n: int) -> None:
        idx = self._device_event("pool_exhausted")
        if idx is not None:
            raise RecyclePoolExhausted(
                f"injected recycle-pool exhaustion (release event "
                f"{idx}, {n} slots)", requested=n, available=0,
                unit="slots", injected=True)

    def on_kernel_launch(self, name: str) -> None:
        idx = self._bump("kernel_abort")
        bumped: set[str] = set()
        for rule in self._rules(("kernel_abort",)):
            if rule.kernel is None:
                rule_idx = idx
            elif self._kernel_match(rule.kernel, name):
                key = rule.kernel
                if key not in bumped:       # once per launch, not per rule
                    bumped.add(key)
                    self.kernel_events[key] = \
                        self.kernel_events.get(key, 0) + 1
                rule_idx = self.kernel_events[key]
            else:
                continue
            if rule.fires(rule_idx):
                self._note_fired("kernel_abort")
                raise KernelAborted(kernel=name, event=rule_idx,
                                    injected=True)

    def on_transfer(self, words: int) -> None:
        idx = self._bump("slow_transfer")
        for rule in self._rules(("slow_transfer",)):
            if rule.fires(idx):
                self._note_fired("slow_transfer")
                if rule.delay_s > 0.0:
                    time.sleep(rule.delay_s)

    @staticmethod
    def _kernel_match(pattern: str, name: str) -> bool:
        if pattern.endswith("*"):
            return name.startswith(pattern[:-1])
        return name == pattern

    # -- disk sites ------------------------------------------------- #

    def on_write(self, path) -> str | None:
        """Count one durable write of ``path``; the disk kind that
        fires on it, or ``None``."""
        self.writes += 1
        text = str(path)
        for rule in self._rules(DISK_KINDS):
            if rule.path is not None and rule.path not in text:
                continue
            if rule.fires(self.writes):
                self._note_fired(rule.kind)
                return rule.kind
        return None
