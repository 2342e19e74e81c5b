"""Graceful degradation policies for the morph drivers.

The paper's §7 strategy menu is not just a performance ablation — it is
a *fallback ladder*: §7.1's Kernel-Only chunked malloc explicitly gives
way to Kernel-Host and Host-Only when in-kernel allocation fails, and
§7.2's Recycling exists precisely to survive allocation pressure.  This
package packages those ladders (plus an engine stall watchdog) as
reusable policies.  A run opts in through the
:data:`repro.vgpu.instrument.RESILIENCE` hook slot, beside the
sanitizer, tracer and fault slots (``with Resilience().activate():``;
the job body installs one per attempt for a ``"resilience": true``
spec); no driver takes a resilience argument:

* :class:`Resilience` / :class:`ResiliencePolicy`
  (:mod:`~repro.resilience.policy`) — the per-attempt runtime: retry
  budgets and the degradation event log (fed to the tracer as
  ``resilience.*`` gauges).  It absorbs faults but never installs
  them: that is the job body's one injector per attempt.
* :class:`FallbackStorage` / :func:`grow_array`
  (:mod:`~repro.resilience.addition`) — the §7.1 addition chain:
  Kernel-Only → Kernel-Host → Host-Only, and exact-fit growth when an
  amortized growth is refused.
* :class:`ResilientRecyclePool` (:mod:`~repro.resilience.deletion`) —
  the §7.2 chain: Recycling → Marking on pool exhaustion.
* :class:`StallLadder` (:mod:`~repro.resilience.watchdog`) — the
  engine's seeded escalation ladder (re-randomize conflict priorities →
  shrink batch → serialize the worklist) that replaces the old hard
  stall ``RuntimeError`` with a typed
  :class:`repro.errors.EngineStalled` only after every level fails.

Determinism contract: a degraded completion is still deterministic —
the same seed plus the same :class:`repro.vgpu.faults.FaultRules`
produces a byte-identical result digest, and a run whose faults are
limited to absorbed OOM/abort/slow-transfer events digests identically
to the fault-free run (degradation is recorded out-of-band, never in
the result payload).
"""

from .addition import FallbackStorage, grow_array
from .deletion import ResilientRecyclePool
from .policy import Resilience, ResiliencePolicy, launch_ok
from .watchdog import StallLadder

__all__ = ["Resilience", "ResiliencePolicy", "launch_ok",
           "FallbackStorage", "grow_array",
           "ResilientRecyclePool", "StallLadder"]
