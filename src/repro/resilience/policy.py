"""The resilience runtime: policy knobs, retry budgets, event log.

A :class:`Resilience` object is created per run (like a sanitizer or
tracer instance) and handed to a driver via its ``resilience=``
keyword.  It owns:

* the :class:`ResiliencePolicy` (plain data — retry budgets, stall
  thresholds, the escalation seed);
* the **event log** — every degradation (kernel retry, strategy
  downgrade, growth fallback, stall escalation) is recorded as a plain
  dict and mirrored to the active tracer as a ``resilience.<kind>``
  gauge.  The log is *out-of-band*: it never enters a result digest,
  which is what keeps an absorbed-fault run byte-identical to the
  fault-free one.

It installs no faults.  The faults it absorbs come from the injector
in :data:`repro.vgpu.instrument.FAULTS` (the job body installs one per
attempt), so a run's fault schedule does not depend on whether it has
resilience.

The module-level :func:`launch_ok` is the driver-side guard for
round-boundary kernel launches: with no resilience it simply offers the
launch to the fault layer (an injected abort propagates as the typed
:class:`repro.errors.KernelAborted`); with resilience it absorbs aborts
up to the policy's retry budget and tells the caller to re-issue the
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import KernelAborted
from ..vgpu.instrument import fault_kernel, trace_gauge

__all__ = ["ResiliencePolicy", "Resilience", "launch_ok"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Plain-data policy knobs (JSON- and pickle-able)."""

    #: transient-abort relaunches per kernel name before giving up
    max_kernel_retries: int = 3
    #: consecutive zero-win rounds before the engine watchdog escalates
    stall_rounds: int = 2
    #: levels of the stall ladder (re-randomize, shrink, serialize)
    max_escalations: int = 3
    #: seeds the ladder's private priority re-randomization
    escalation_seed: int = 0

    def to_dict(self) -> dict:
        return {"max_kernel_retries": self.max_kernel_retries,
                "stall_rounds": self.stall_rounds,
                "max_escalations": self.max_escalations,
                "escalation_seed": self.escalation_seed}

    @classmethod
    def from_dict(cls, d: Mapping) -> "ResiliencePolicy":
        return cls(
            max_kernel_retries=int(d.get("max_kernel_retries", 3)),
            stall_rounds=int(d.get("stall_rounds", 2)),
            max_escalations=int(d.get("max_escalations", 3)),
            escalation_seed=int(d.get("escalation_seed", 0)))


class Resilience:
    """One run's degradation state (create fresh per run/attempt)."""

    def __init__(self, policy: ResiliencePolicy | None = None) -> None:
        self.policy = policy or ResiliencePolicy()
        #: chronological degradation log: ``{"kind": ..., **detail}``
        self.events: list[dict] = []
        #: axis -> value the run *actually* used after downgrades
        #: (e.g. ``{"addition": "host_only"}``); empty = as configured
        self.effective_strategy: dict = {}
        self._kernel_retries: dict[str, int] = {}
        self._counts: dict[str, int] = {}

    @property
    def degraded(self) -> bool:
        return bool(self.events)

    def note(self, kind: str, **detail) -> None:
        """Record one degradation event (and mirror it as a gauge)."""
        self.events.append({"kind": kind, **detail})
        self._counts[kind] = self._counts.get(kind, 0) + 1
        trace_gauge(f"resilience.{kind}", self._counts[kind])

    def note_effective(self, axis: str, value) -> None:
        """Record that ``axis`` effectively ran as ``value``."""
        self.effective_strategy[axis] = value

    def launch_ok(self, name: str) -> bool:
        """Offer launch ``name`` to the fault layer; absorb transient
        aborts up to the retry budget.

        Returns ``True`` when the round may proceed, ``False`` when an
        abort was absorbed and the caller should re-issue the *same*
        round (no state mutated, no RNG consumed — the retry is
        byte-invisible).  Re-raises the :class:`KernelAborted` once the
        per-kernel budget is spent.
        """
        try:
            fault_kernel(name)
        except KernelAborted:
            used = self._kernel_retries.get(name, 0) + 1
            self._kernel_retries[name] = used
            if used > self.policy.max_kernel_retries:
                self.note("kernel_abort_fatal", kernel=name, retries=used - 1)
                raise
            self.note("kernel_retry", kernel=name, attempt=used)
            return False
        return True

    def summary(self) -> dict:
        """Plain-data view for job records / reports (out-of-band)."""
        return {"degraded": self.degraded,
                "events": [dict(e) for e in self.events],
                "effective_strategy": dict(self.effective_strategy)}


def launch_ok(resilience: Resilience | None, name: str) -> bool:
    """Round-boundary launch guard (see module docstring)."""
    if resilience is None:
        fault_kernel(name)
        return True
    return resilience.launch_ok(name)
