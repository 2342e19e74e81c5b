"""Instrumentation hook slots for the virtual GPU.

This module is the *hook point* between the simulated device and its
scoped clients — the :mod:`repro.analysis` sanitizer, the
:mod:`repro.obs` tracer, the :mod:`repro.vgpu.faults` fault injector
and the :mod:`repro.resilience` runtime — and deliberately knows
nothing about any concrete client.  Each client kind has one
process-global :class:`HookSlot` (:data:`SANITIZER`, :data:`TRACER`,
:data:`FAULTS`, :data:`RESILIENCE`), and the slots are the only way a
run gets its clients: no driver takes one as an argument.  The device
primitives (:mod:`.atomics`, :mod:`.memory`, :mod:`.kernel`), the
conflict engine (:mod:`repro.core.conflict`) and the counters read
``SLOT.current`` on every operation.  When no client is active (the
default) each check is one attribute load and a ``None`` comparison,
so production runs pay essentially nothing and consume no RNG draws.

A sanitizer is any object implementing the :class:`SanitizerHooks`
interface (all methods are optional no-ops on the base class).  It is
installed for a dynamic scope with its slot::

    from repro.analysis import RaceDetector

    det = RaceDetector()
    with det.activate():          # wraps SANITIZER.activate(det)
        refine_gpu(mesh)
    det.assert_clean()

A tracer is any object implementing :class:`TracerHooks` (the concrete
one is :class:`repro.obs.Tracer`); it is installed with
``with tracer.activate():`` (``TRACER.activate``).  Every
:class:`~repro.core.counters.OpCounter` reports its launches and scalar
bumps to it, and the :func:`trace_span` / :func:`trace_gauge`
convenience wrappers sprinkled through the device and core layers add
structure and samples.

The :data:`FAULTS` slot holds at most one fault injector
(:class:`repro.vgpu.faults.FaultInjector`): the job body installs one
per job attempt.  The device offers it each failure surface through
the ``fault_*`` wrappers below; :mod:`repro.storage` offers it every
durable write, and the job body the job start and round boundaries.

The :data:`RESILIENCE` slot holds at most one
:class:`repro.resilience.Resilience`: the job body installs the
attempt's own beside its injector when the spec opts in.  A driver
looks at the slot when it starts, to choose its fallback-capable
storage, and the §7.1/§7.2 ladders read it again when a fault or a
stall reaches them, so state that outlives an attempt (a session's
graph storage) logs into the attempt that absorbed the fault.

Kernels that perform raw vectorized gathers/stores outside the atomics
API can annotate them with :func:`record_read` / :func:`record_write`
so the race detector's shadow memory sees them too.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np

__all__ = [
    "FAULTS", "RESILIENCE", "SANITIZER", "TRACER",
    "HookSlot", "SanitizerHooks", "TracerHooks",
    "fault_chunk", "fault_kernel", "fault_malloc", "fault_pool",
    "fault_transfer", "record_read", "record_write", "trace_gauge",
    "trace_span",
]


class HookSlot:
    """One process-global slot holding the innermost active hook client.

    ``current`` is the client (or ``None``); hot paths read it with one
    attribute load.  :meth:`activate` installs a client for the dynamic
    extent of a ``with`` block; activations nest, and the previous client
    is restored when the block exits, normally or by raising.  The slot
    is deliberately not thread- or context-local: every driver runs on
    the thread that activated its clients.
    """

    __slots__ = ("current",)

    def __init__(self) -> None:
        self.current = None

    @contextmanager
    def activate(self, client):
        """Install ``client`` for the ``with`` block; yields it."""
        prev = self.current
        self.current = client
        try:
            yield client
        finally:
            self.current = prev

    def maybe_activate(self, client):
        """Like :meth:`activate` but a no-op when ``client`` is ``None``,
        so an outer client stays installed (the job body's fault
        injector, the tuner's optional tracer)."""
        if client is None:
            return nullcontext()
        return self.activate(client)


class SanitizerHooks:
    """No-op base interface for device sanitizers.

    The hook vocabulary mirrors what a bulk-synchronous device exposes:

    * kernel scopes (``on_kernel_begin`` / ``on_kernel_end``) group
      accesses for attribution;
    * ``on_barrier`` ends the current intra-kernel phase — accesses in
      different phases are ordered and can never race;
    * ``on_write`` / ``on_read`` record one batch of simulated-thread
      accesses (``kind`` is ``"plain"`` or ``"atomic"``; ``intent`` is
      ``"mark"`` for conflict-engine protocol traffic that is resolved
      by :meth:`on_marking` rather than by phase analysis);
    * ``on_alloc`` / ``on_free`` track :class:`~repro.vgpu.memory.\
DeviceAllocator` extents for bounds / use-after-free checks;
    * ``on_marking`` reports a completed marking protocol (claims plus
      the winner mask) so exclusive ownership can be registered and
      overlapping "exclusive" owners flagged;
    * ``on_spmd_barriers`` reports per-thread barrier counts from
      :func:`repro.vgpu.kernel.spmd_launch` for divergence checking.
    """

    def on_kernel_begin(self, name: str, **info) -> None:
        pass

    def on_kernel_end(self, name: str) -> None:
        pass

    def on_barrier(self) -> None:
        pass

    def on_write(self, arr: np.ndarray, idx, *, tids=None,
                 kind: str = "plain", intent: str = "store") -> None:
        pass

    def on_read(self, arr: np.ndarray, idx, *, tids=None,
                intent: str = "load") -> None:
        pass

    def on_alloc(self, arr: np.ndarray) -> None:
        pass

    def on_free(self, arr: np.ndarray) -> None:
        pass

    def on_marking(self, name: str, claims, winners: np.ndarray, *,
                   scheme: str) -> None:
        pass

    def on_spmd_barriers(self, name: str, counts: np.ndarray) -> None:
        pass


#: the innermost active :class:`SanitizerHooks` client
SANITIZER = HookSlot()


def record_read(arr: np.ndarray, idx, *, tids=None,
                intent: str = "load") -> None:
    """Annotate a raw vectorized gather for the active sanitizer."""
    san = SANITIZER.current
    if san is not None:
        san.on_read(arr, idx, tids=tids, intent=intent)


def record_write(arr: np.ndarray, idx, *, tids=None, kind: str = "plain",
                 intent: str = "store") -> None:
    """Annotate a raw vectorized store for the active sanitizer."""
    san = SANITIZER.current
    if san is not None:
        san.on_write(arr, idx, tids=tids, kind=kind, intent=intent)


# ------------------------------------------------------------------ #
# Tracer hooks (consumed by repro.obs)                               #
# ------------------------------------------------------------------ #

class TracerHooks:
    """No-op base interface for launch-level tracers.

    The vocabulary mirrors how the host observes a bulk-synchronous
    device:

    * span scopes (``on_span_begin`` / ``on_span_end``) delimit
      hierarchical regions — driver runs, do-while iterations, jobs;
    * ``on_launch`` reports that ``counter`` just recorded one kernel
      launch (or one barrier-separated wave of a running kernel) with
      the given counts;
    * ``on_bump`` reports that ``counter`` raised a scalar tally — the
      host-driven costs (PCIe transfers, reallocations, device-heap
      mallocs) live there;
    * ``on_gauge`` samples a named scalar (worklist occupancy, bytes
      live, threads-per-block, ...) at the current point of the span
      timeline.

    A tracer prices a report by re-pricing the whole ``counter`` with
    :meth:`repro.vgpu.costmodel.CostModel.gpu_time`, so there is one
    pricing rule.  All hooks are *observational*: a tracer must not
    mutate device or counter state and must not draw from any RNG, so
    traced runs stay byte-identical to untraced ones.
    """

    def on_span_begin(self, name: str, cat: str = "span", **args) -> None:
        pass

    def on_span_end(self, **args) -> None:
        pass

    def on_launch(self, counter, name: str, **counts) -> None:
        pass

    def on_bump(self, counter, name: str, value: float) -> None:
        pass

    def on_gauge(self, name: str, value: float) -> None:
        pass


#: the innermost active :class:`TracerHooks` client
TRACER = HookSlot()


@contextmanager
def trace_span(name: str, cat: str = "span", **args):
    """Open a tracer span for the ``with`` block (no-op when inactive)."""
    tr = TRACER.current
    if tr is None:
        yield None
        return
    tr.on_span_begin(name, cat=cat, **args)
    try:
        yield tr
    finally:
        tr.on_span_end()


def trace_gauge(name: str, value: float) -> None:
    """Sample a gauge on the active tracer, if any."""
    tr = TRACER.current
    if tr is not None:
        tr.on_gauge(name, value)


# ------------------------------------------------------------------ #
# Fault sites (consumed by repro.vgpu.faults)                        #
# ------------------------------------------------------------------ #

#: the active fault client (a :class:`repro.vgpu.faults.FaultInjector`).
#: A fault hook may raise a typed :class:`repro.errors.DeviceFault` or
#: sleep wall-clock time, modeling the device failing underneath the
#: host; it never mutates device state or draws from a shared RNG.
FAULTS = HookSlot()


def fault_malloc(nbytes: int) -> None:
    """Offer an allocation of ``nbytes`` to the active fault client."""
    fc = FAULTS.current
    if fc is not None:
        fc.on_malloc(nbytes)


def fault_chunk() -> None:
    """Offer a chunk-pool allocation to the active fault client."""
    fc = FAULTS.current
    if fc is not None:
        fc.on_chunk_alloc()


def fault_pool(n: int) -> None:
    """Offer a recycle-pool release of ``n`` slots to the fault client."""
    fc = FAULTS.current
    if fc is not None:
        fc.on_pool_release(n)


def fault_kernel(name: str) -> None:
    """Offer a named kernel launch to the active fault client."""
    fc = FAULTS.current
    if fc is not None:
        fc.on_kernel_launch(name)


def fault_transfer(words: int) -> None:
    """Offer a host<->device transfer to the active fault client."""
    fc = FAULTS.current
    if fc is not None:
        fc.on_transfer(words)


#: the active degradation runtime (a :class:`repro.resilience.Resilience`)
#: that absorbs the faults above; empty means every fault propagates typed
RESILIENCE = HookSlot()
