"""The concrete :class:`Tracer`: spans, priced events, and gauges.

A :class:`Tracer` implements the :class:`repro.vgpu.instrument.TracerHooks`
interface and builds a timeline of :class:`SpanEvent` records on a
*virtual* microsecond clock.  Because nothing here executes on real
hardware, wall-clock time is meaningless; the clock shows *modeled*
time — the quantity the Fig. 6–11 benchmarks report — and only counter
reports move it.

Pricing: :meth:`repro.vgpu.costmodel.CostModel.gpu_time` is the one
pricer.  Every :class:`~repro.core.counters.OpCounter` hands itself to
the active tracer on each ``launch`` and each ``bump``; the tracer
re-prices that counter and advances the clock by how much its
``gpu_time`` rose since the tracer last saw it.  A launch becomes a
``kernel.launch`` event, a bump a ``host`` event (PCIe transfers,
reallocations, device-heap mallocs).  The events of one counter
therefore add up to its ``gpu_time`` by construction, and a trace over
several counters adds up to the sum of theirs.  A counter that arrives
non-empty (a resumed checkpoint) is priced whole at its first event.

Determinism: a tracer never mutates device, counter or algorithm state
and never draws from an RNG, so a traced run is byte-identical to an
untraced one (``tests/test_seed_stability.py`` enforces this).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..vgpu.costmodel import CostModel
from ..vgpu.instrument import TRACER, TracerHooks

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
    """Record hierarchical spans, priced events and gauges for one (or
    more) driver runs, priced on the paper's Tesla C2070."""

    def __init__(self) -> None:
        self.cost = CostModel()
        #: closed events, in completion order (exporter sorts by ts)
        self.events: list[SpanEvent] = []
        #: open spans, outermost first
        self.stack: list[SpanEvent] = []
        #: gauge name -> list of (ts, value) samples
        self.gauges: dict[str, list[tuple[float, float]]] = {}
        #: kernel name -> [launches, priced µs, items, aborted]
        self.launch_totals: dict[str, list] = {}
        #: scalar name -> [bumps, priced µs]
        self.host_totals: dict[str, list] = {}
        #: id(counter) -> (counter, its µs already on the clock); holding
        #: the counter keeps its id from being reused by a new one
        self._priced: dict[int, tuple[object, float]] = {}
        self._now = 0.0

    @property
    def now_us(self) -> float:
        """Current position of the virtual clock, in microseconds."""
        return self._now

    def _advance(self, name: str, cat: str, counter, args: dict) -> float:
        """Append one event pricing ``counter``'s rise; returns its µs."""
        priced = self.cost.gpu_time(counter) * 1e6
        seen = self._priced.get(id(counter))
        self._priced[id(counter)] = (counter, priced)
        dur = priced - (seen[1] if seen is not None else 0.0)
        self.events.append(SpanEvent(name, cat, self._now, dur, args))
        self._now += dur
        return dur

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

    def on_launch(self, counter, name: str, **counts) -> None:
        dur = self._advance(name, "kernel.launch", counter, counts)
        tot = self.launch_totals.setdefault(name, [0, 0.0, 0, 0])
        tot[0] += counts.get("launches", 1)
        tot[1] += dur
        tot[2] += counts.get("items", 0)
        tot[3] += counts.get("aborted", 0)

    def on_bump(self, counter, name: str, value: float) -> None:
        dur = self._advance(name, "host", counter, {"value": value})
        tot = self.host_totals.setdefault(name, [0, 0.0])
        tot[0] += 1
        tot[1] += dur

    def on_gauge(self, name: str, value: float) -> None:
        self.gauges.setdefault(name, []).append((self._now, float(value)))

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
            host.<name>.count             bumps per scalar tally
            host.<name>.us                priced time per scalar tally
            gauge.<name>.last/.max/.n     final / peak / sample count

        ``modeled_us`` is the sum of every ``launch.*.us`` and
        ``host.*.us``.
        """
        out: dict[str, float] = {"modeled_us": self._now}
        out["span.count"] = float(sum(
            1 for e in self.events if e.cat not in ("kernel.launch", "host")))
        for name in sorted(self.launch_totals):
            count, us, items, aborted = self.launch_totals[name]
            out[f"launch.{name}.count"] = float(count)
            out[f"launch.{name}.us"] = us
            out[f"launch.{name}.items"] = float(items)
            out[f"launch.{name}.aborted"] = float(aborted)
        for name in sorted(self.host_totals):
            count, us = self.host_totals[name]
            out[f"host.{name}.count"] = float(count)
            out[f"host.{name}.us"] = us
        for name in sorted(self.gauges):
            samples = self.gauges[name]
            out[f"gauge.{name}.last"] = samples[-1][1]
            out[f"gauge.{name}.max"] = max(v for _, v in samples)
            out[f"gauge.{name}.n"] = float(len(samples))
        return out
