"""The concrete :class:`Tracer`: spans, launch pricing, and gauges.

A :class:`Tracer` implements the :class:`repro.vgpu.instrument.TracerHooks`
interface and builds a timeline of :class:`SpanEvent` records on a
*virtual* microsecond clock.  Because nothing here executes on real
hardware, wall-clock time is meaningless; instead the clock advances only
when a priced launch event arrives, by the cost-model duration of that
launch.  The resulting trace therefore shows *modeled* time — the same
quantity the Fig. 6–11 benchmarks report — broken down per launch and per
conflict-resolution phase.

Pricing replicates the per-kernel body of
:meth:`repro.vgpu.costmodel.CostModel.gpu_time` directly rather than
building a throwaway :class:`~repro.core.counters.OpCounter` and pricing
it, because ``OpCounter.launch`` is itself a tracer hook site — going
through it from inside the tracer would recurse.

Determinism: a tracer never mutates device or algorithm state and never
draws from an RNG, so a traced run is byte-identical to an untraced one
(``tests/test_seed_stability.py`` enforces this).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..vgpu.costmodel import GPU_ATOMIC_UNITS, GPU_CYCLES_PER_STEP
from ..vgpu.device import GpuSpec, TESLA_C2070
from ..vgpu.instrument import TRACER, TracerHooks
from ..vgpu.sync import BarrierModel, HIERARCHICAL

__all__ = ["SpanEvent", "Tracer"]


@dataclass
class SpanEvent:
    """One closed interval or instantaneous sample on the trace timeline.

    ``ts`` and ``dur`` are virtual microseconds.  ``dur`` is ``None``
    while a span is still open (the exporter synthesizes a duration for
    spans left open at export time).
    """

    name: str
    cat: str
    ts: float
    dur: float | None = None
    args: dict = field(default_factory=dict)


class Tracer(TracerHooks):
    """Record hierarchical spans and gauges for one (or more) driver runs.

    Parameters
    ----------
    spec:
        GPU whose cost table prices the launches (default Tesla C2070,
        the paper's card).
    barrier:
        Barrier scheme used for pricing barrier crossings when the
        kernel did not override it.
    blocks / threads_per_block:
        Default launch geometry for barrier pricing; drivers that adapt
        their geometry report it via :meth:`on_geometry` and override
        these.
    """

    def __init__(self, spec: GpuSpec = TESLA_C2070, *,
                 barrier: BarrierModel = HIERARCHICAL,
                 blocks: int | None = None,
                 threads_per_block: int = 256) -> None:
        self.spec = spec
        self.barrier = barrier
        self.blocks = blocks if blocks is not None else spec.num_sms * 8
        self.threads_per_block = threads_per_block
        #: closed events, in completion order (exporter sorts by ts)
        self.events: list[SpanEvent] = []
        #: open spans, outermost first
        self.stack: list[SpanEvent] = []
        #: gauge name -> list of (ts, value) samples
        self.gauges: dict[str, list[tuple[float, float]]] = {}
        #: per-launch-name accumulated (count, priced µs)
        self.launch_totals: dict[str, list] = {}
        self._now = 0.0

    # ------------------------------------------------------------------ #
    # clock & pricing                                                    #
    # ------------------------------------------------------------------ #
    @property
    def now_us(self) -> float:
        """Current position of the virtual clock, in microseconds."""
        return self._now

    def _price_us(self, *, items: int, word_reads: int, word_writes: int,
                  atomics: int, barriers: int, launches: int,
                  issued_lane_steps: int, critical_lane_steps: int) -> float:
        """Modeled GPU microseconds for one launch's counts.

        Mirrors the per-kernel body of ``CostModel.gpu_time`` (same
        constants, same max-of-compute-and-memory overlap rule).
        """
        spec = self.spec
        if issued_lane_steps == 0 and items:
            issued_lane_steps = items
            critical_lane_steps = critical_lane_steps or 1
        cycles = launches * spec.kernel_launch_cycles
        throughput = issued_lane_steps * GPU_CYCLES_PER_STEP / spec.total_cores
        critical = critical_lane_steps * GPU_CYCLES_PER_STEP
        compute = max(throughput, critical)
        mem = (word_reads + word_writes) / spec.words_per_clock
        cycles += max(compute, mem)
        cycles += atomics * spec.atomic_cycles / (
            GPU_ATOMIC_UNITS * spec.cores_per_sm)
        cycles += barriers * self.barrier.cycles(
            spec, self.blocks, self.threads_per_block)
        return cycles / spec.clock_hz * 1e6

    # ------------------------------------------------------------------ #
    # TracerHooks implementation                                         #
    # ------------------------------------------------------------------ #
    def on_span_begin(self, name: str, cat: str = "span", **args) -> None:
        self.stack.append(SpanEvent(name, cat, self._now, None, dict(args)))

    def on_span_end(self, **args) -> None:
        if not self.stack:
            return
        span = self.stack.pop()
        span.dur = self._now - span.ts
        if args:
            span.args.update(args)
        self.events.append(span)

    def on_launch(self, name: str, *, cat: str = "kernel.launch",
                  items: int = 0, aborted: int = 0, word_reads: int = 0,
                  word_writes: int = 0, atomics: int = 0, barriers: int = 0,
                  launches: int = 1, issued_lane_steps: int = 0,
                  critical_lane_steps: int = 0) -> None:
        dur = self._price_us(
            items=items, word_reads=word_reads, word_writes=word_writes,
            atomics=atomics, barriers=barriers, launches=launches,
            issued_lane_steps=issued_lane_steps,
            critical_lane_steps=critical_lane_steps)
        self.events.append(SpanEvent(
            name, cat, self._now, dur,
            {"items": items, "aborted": aborted,
             "word_reads": word_reads, "word_writes": word_writes,
             "atomics": atomics, "barriers": barriers,
             "launches": launches}))
        tot = self.launch_totals.setdefault(name, [0, 0.0, 0, 0])
        tot[0] += launches
        tot[1] += dur
        tot[2] += items
        tot[3] += aborted
        self._now += dur

    def on_gauge(self, name: str, value: float) -> None:
        self.gauges.setdefault(name, []).append((self._now, float(value)))

    def on_geometry(self, blocks: int, threads_per_block: int) -> None:
        self.blocks = int(blocks)
        self.threads_per_block = int(threads_per_block)
        self.on_gauge("launch.blocks", blocks)
        self.on_gauge("launch.tpb", threads_per_block)

    # ------------------------------------------------------------------ #
    # user-facing conveniences                                           #
    # ------------------------------------------------------------------ #
    def activate(self):
        """Install this tracer for a ``with`` block (manual wiring)."""
        return TRACER.activate(self)

    @contextmanager
    def span(self, name: str, cat: str = "span", **args):
        """Open a span directly on this tracer (no activation needed)."""
        self.on_span_begin(name, cat=cat, **args)
        try:
            yield self
        finally:
            self.on_span_end()

    def closed_events(self) -> list[SpanEvent]:
        """All events, with still-open spans synthesized up to *now*."""
        out = list(self.events)
        for span in self.stack:
            out.append(SpanEvent(span.name, span.cat, span.ts,
                                 self._now - span.ts, dict(span.args)))
        out.sort(key=lambda e: (e.ts, -(e.dur or 0.0)))
        return out

    def metrics(self) -> dict[str, float]:
        """Flatten the trace into a metrics dict (stable key order).

        Keys::

            modeled_us                    total virtual time
            span.count                    number of closed spans
            launch.<name>.count           dispatches per kernel
            launch.<name>.us              priced time per kernel
            launch.<name>.items           work items per kernel
            launch.<name>.aborted         aborted items per kernel
            gauge.<name>.last/.max/.n     final / peak / sample count
        """
        out: dict[str, float] = {"modeled_us": self._now}
        out["span.count"] = float(sum(
            1 for e in self.events if e.cat not in
            ("kernel.launch", "conflict.phase")))
        for name in sorted(self.launch_totals):
            count, us, items, aborted = self.launch_totals[name]
            out[f"launch.{name}.count"] = float(count)
            out[f"launch.{name}.us"] = us
            out[f"launch.{name}.items"] = float(items)
            out[f"launch.{name}.aborted"] = float(aborted)
        for name in sorted(self.gauges):
            samples = self.gauges[name]
            out[f"gauge.{name}.last"] = samples[-1][1]
            out[f"gauge.{name}.max"] = max(v for _, v in samples)
            out[f"gauge.{name}.n"] = float(len(samples))
        return out
