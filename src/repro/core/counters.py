"""Operation counters: the measurement substrate for every experiment.

The paper reports wall-clock times on a Tesla C2070 and a 48-core Xeon.
This reproduction runs the same *algorithms* (same phase structure, same
conflicts, same work) on a simulated device, so times are derived from
operation counts via :mod:`repro.vgpu.costmodel`.  Every implementation in
this repository is instrumented through an :class:`OpCounter`.

The counter records, per named kernel:

* how many times the kernel was launched,
* how many work items each launch processed (and how many aborted),
* memory traffic (word reads/writes), atomic operations, and barrier
  crossings attributed to the launch,
* a divergence estimate: the sum over simulated warps of
  ``warp_size * max(work in warp)`` versus the useful work
  ``sum(work in warp)``.

Counts are plain integers; the class stays dependency-light so that
substrates (meshing, graph generators) can use it too — its only
coupling is a lazy hand-off to the ``TRACER`` slot of
:mod:`repro.vgpu.instrument` (a ``None`` check when no tracer is
active).  Each ``launch`` and each ``bump`` hands the counter itself to
the active tracer, which re-prices it with
:meth:`repro.vgpu.costmodel.CostModel.gpu_time`; ``merge`` adds
tallies silently, so work a tracer already saw is not priced twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping

import numpy as np

__all__ = ["KernelStats", "OpCounter", "warp_divergence"]

#: scalars that configure how ``CostModel.gpu_time`` prices a counter
#: rather than tally work: ``merge`` keeps the incoming value, never a sum
CONFIG_SCALARS = ("barrier_kind", "cfg_blocks", "cfg_tpb", "fp_scale")

# Lazy cached handle on repro.vgpu.instrument.  Imported at first use,
# not at module level: vgpu.kernel imports this module, so an eager
# import here would close a cycle during package init.
_instrument = None


def _hooks():
    global _instrument
    if _instrument is None:
        from ..vgpu import instrument as _mod
        _instrument = _mod
    return _instrument


def warp_divergence(work_per_thread: np.ndarray, warp_size: int = 32) -> tuple[int, int]:
    """Estimate SIMD divergence for one kernel launch.

    ``work_per_thread[i]`` is the number of unit-work steps thread ``i``
    executes.  Threads are grouped into warps of ``warp_size`` consecutive
    threads (the hardware mapping).  A warp occupies its lanes for
    ``max(work)`` steps, so the *issued* lane-steps are
    ``warp_size * max(work)`` while only ``sum(work)`` are useful.

    Returns ``(issued, useful)`` lane-step totals.
    """
    w = np.asarray(work_per_thread, dtype=np.int64)
    if w.size == 0:
        return 0, 0
    pad = (-w.size) % warp_size
    if pad:
        w = np.concatenate([w, np.zeros(pad, dtype=np.int64)])
    warps = w.reshape(-1, warp_size)
    issued = int(warps.max(axis=1).sum()) * warp_size
    useful = int(warps.sum())
    return issued, useful


@dataclass
class KernelStats:
    """Accumulated statistics for one named kernel across all launches."""

    launches: int = 0
    items: int = 0
    aborted: int = 0
    word_reads: int = 0
    word_writes: int = 0
    atomics: int = 0
    barriers: int = 0
    issued_lane_steps: int = 0
    useful_lane_steps: int = 0
    #: sum over launches of the longest single-thread work in that launch
    #: (a kernel cannot finish before its slowest thread)
    critical_lane_steps: int = 0
    #: per-launch list of item counts, used for round-by-round profiles
    per_launch_items: list = field(default_factory=list)

    @property
    def abort_ratio(self) -> float:
        """Fraction of attempted items that backed off."""
        return self.aborted / self.items if self.items else 0.0

    @property
    def divergence(self) -> float:
        """Issued / useful lane-steps; 1.0 means perfectly converged warps."""
        if self.useful_lane_steps == 0:
            return 1.0
        return self.issued_lane_steps / self.useful_lane_steps

    def merge(self, other: "KernelStats") -> None:
        self.launches += other.launches
        self.items += other.items
        self.aborted += other.aborted
        self.word_reads += other.word_reads
        self.word_writes += other.word_writes
        self.atomics += other.atomics
        self.barriers += other.barriers
        self.issued_lane_steps += other.issued_lane_steps
        self.useful_lane_steps += other.useful_lane_steps
        self.critical_lane_steps += other.critical_lane_steps
        self.per_launch_items.extend(other.per_launch_items)

    def __add__(self, other: "KernelStats") -> "KernelStats":
        out = KernelStats()
        out.merge(self)
        out.merge(other)
        return out


class OpCounter:
    """A hierarchical registry of :class:`KernelStats`, keyed by kernel name.

    Usage::

        ctr = OpCounter()
        ctr.launch("refine", items=1024, aborted=37,
                   word_reads=9216, word_writes=4096, atomics=3072,
                   barriers=2, work_per_thread=work)
        ctr.total_items()
    """

    def __init__(self) -> None:
        self._kernels: Dict[str, KernelStats] = {}
        #: free-form scalar tallies (e.g. reallocation count, bytes copied)
        self.scalars: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    def kernel(self, name: str) -> KernelStats:
        """Return (creating if needed) the stats bucket for ``name``."""
        if name not in self._kernels:
            self._kernels[name] = KernelStats()
        return self._kernels[name]

    def launch(
        self,
        name: str,
        *,
        items: int = 0,
        aborted: int = 0,
        word_reads: int = 0,
        word_writes: int = 0,
        atomics: int = 0,
        barriers: int = 0,
        work_per_thread: np.ndarray | None = None,
        warp_size: int = 32,
        count_launch: bool = True,
    ) -> KernelStats:
        """Record one kernel launch and its attributed work.

        ``count_launch=False`` attributes work to an *already launched*
        kernel (e.g. one barrier-separated wave inside a long-running
        kernel) without charging another dispatch.
        """
        ks = self.kernel(name)
        ks.launches += 1 if count_launch else 0
        ks.items += items
        ks.aborted += aborted
        ks.word_reads += word_reads
        ks.word_writes += word_writes
        ks.atomics += atomics
        ks.barriers += barriers
        ks.per_launch_items.append(items)
        if work_per_thread is not None:
            issued, useful = warp_divergence(work_per_thread, warp_size)
            ks.issued_lane_steps += issued
            ks.useful_lane_steps += useful
            if np.asarray(work_per_thread).size:
                ks.critical_lane_steps += int(np.max(work_per_thread))
        else:
            # Assume one unit of work per item with converged warps.
            ks.issued_lane_steps += items
            ks.useful_lane_steps += items
            ks.critical_lane_steps += 1 if items else 0
        tracer = _hooks().TRACER.current
        if tracer is not None:
            tracer.on_launch(
                self, name, items=items, aborted=aborted,
                word_reads=word_reads, word_writes=word_writes,
                atomics=atomics, barriers=barriers,
                launches=1 if count_launch else 0)
        return ks

    def bump(self, name: str, value: float = 1.0) -> None:
        """Increment a free-form scalar tally."""
        self.scalars[name] = self.scalars.get(name, 0.0) + value
        tracer = _hooks().TRACER.current
        if tracer is not None:
            tracer.on_bump(self, name, value)

    # ------------------------------------------------------------------ #
    def kernels(self) -> Mapping[str, KernelStats]:
        return dict(self._kernels)

    def __iter__(self) -> Iterator[tuple[str, KernelStats]]:
        return iter(self._kernels.items())

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def total_launches(self) -> int:
        return sum(k.launches for k in self._kernels.values())

    def total_items(self) -> int:
        return sum(k.items for k in self._kernels.values())

    def total_aborted(self) -> int:
        return sum(k.aborted for k in self._kernels.values())

    def total_atomics(self) -> int:
        return sum(k.atomics for k in self._kernels.values())

    def total_words(self) -> int:
        return sum(k.word_reads + k.word_writes for k in self._kernels.values())

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's tallies into this one.

        Tally scalars add up; the :data:`CONFIG_SCALARS` ``other`` sets
        replace this counter's, so a merged counter still prices.
        """
        for name, ks in other:
            self.kernel(name).merge(ks)
        for key, val in other.scalars.items():
            if key in CONFIG_SCALARS:
                self.scalars[key] = val
            else:
                self.scalars[key] = self.scalars.get(key, 0.0) + val

    def __add__(self, other: "OpCounter") -> "OpCounter":
        """Lossless aggregation: a fresh counter holding both tallies.

        ``sum(counters, OpCounter())`` therefore folds per-process
        counters from a worker pool into one whole-batch counter.  The
        tally scalars add up; each configuration scalar
        (:data:`CONFIG_SCALARS`) is the right operand's if it sets one,
        else the left's, so the sum prices with one configuration.
        """
        if not isinstance(other, OpCounter):
            return NotImplemented
        out = OpCounter()
        out.merge(self)
        out.merge(other)
        return out

    def __radd__(self, other) -> "OpCounter":
        # Support ``sum(...)`` with its default integer start value.
        if other == 0:
            return OpCounter() + self
        return NotImplemented

    def copy(self) -> "OpCounter":
        """An independent deep copy (shares no mutable state)."""
        out = OpCounter()
        out.merge(self)
        return out

    def reset(self) -> None:
        self._kernels.clear()
        self.scalars.clear()

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable multi-line summary, one row per kernel."""
        lines = [
            f"{'kernel':<28}{'launches':>9}{'items':>12}{'abort%':>8}"
            f"{'atomics':>10}{'words':>12}{'div':>6}"
        ]
        for name in sorted(self._kernels):
            ks = self._kernels[name]
            lines.append(
                f"{name:<28}{ks.launches:>9}{ks.items:>12}"
                f"{100.0 * ks.abort_ratio:>7.1f}%"
                f"{ks.atomics:>10}{ks.word_reads + ks.word_writes:>12}"
                f"{ks.divergence:>6.2f}"
            )
        for key in sorted(self.scalars):
            lines.append(f"{key:<28}{self.scalars[key]:>9g}")
        return "\n".join(lines)


def merge_counters(counters: Iterable[OpCounter]) -> OpCounter:
    """Convenience: merge many counters into a fresh one."""
    out = OpCounter()
    for c in counters:
        out.merge(c)
    return out
