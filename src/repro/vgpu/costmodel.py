"""Counts -> modeled seconds.

The reproduction cannot run CUDA, so every implementation records what it
*did* (work items, aborted items, memory words, atomics, kernel launches,
barrier crossings, warp divergence) in an :class:`~repro.core.counters.OpCounter`,
and this module converts those counts into modeled execution times on the
paper's hardware (Tesla C2070 GPU, 48-core Xeon E7540 host).

Design rules, to keep the model honest:

* **One global cost table.**  Per-operation cycle costs live in
  :class:`GpuSpec`/:class:`CpuSpec` and the two constants below; no
  benchmark tunes them.  Relative results (who wins, crossovers) must
  emerge from the measured counts.
* **Throughput model.**  A kernel's compute time is its issued SIMD
  lane-steps divided by the device's lanes; its memory time is word
  traffic divided by bandwidth; the two overlap (max), as on real GPUs.
  Atomics are serialized per memory partition, barriers cost per
  crossing according to the selected :class:`~repro.vgpu.sync.BarrierModel`.
* **Divergence is already in the counts**: ``issued_lane_steps`` includes
  idle lanes of divergent warps (see :func:`repro.core.counters.warp_divergence`).

The CPU model has no SIMD penalty (``useful_lane_steps``), adds a
per-item scheduler cost (Galois worklists), and pays one barrier per
round for bulk-synchronous emulations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.counters import OpCounter
from .device import CpuSpec, GpuSpec, TESLA_C2070, XEON_E7540
from .sync import BarrierModel, HIERARCHICAL

__all__ = ["CostModel", "ModeledTimes", "GPU_CYCLES_PER_STEP",
           "CPU_CYCLES_PER_STEP", "COST_MODEL_VERSION"]

#: Bumped whenever the pricing rules or constants change in a way that
#: invalidates previously modeled times.  :mod:`repro.tune` keys its
#: persistent tuning cache on this, so stale tunings are re-searched
#: rather than silently reused against a different cost model.
COST_MODEL_VERSION = 1

#: Modeled cycles per unit work step on a GPU lane (in-order, dual-issue).
GPU_CYCLES_PER_STEP = 12.0
#: Modeled cycles per unit work step on a CPU core (superscalar, OoO).
CPU_CYCLES_PER_STEP = 5.0
#: Number of independent atomic units (memory partitions) on the GPU.
GPU_ATOMIC_UNITS = 6


@dataclass(frozen=True)
class ModeledTimes:
    """Times (seconds) for the three platforms the paper compares."""

    gpu: float = float("nan")
    cpu_parallel: float = float("nan")
    serial: float = float("nan")

    @property
    def gpu_speedup_vs_serial(self) -> float:
        return self.serial / self.gpu

    @property
    def gpu_speedup_vs_parallel(self) -> float:
        return self.cpu_parallel / self.gpu

    @property
    def parallel_speedup_vs_serial(self) -> float:
        return self.serial / self.cpu_parallel


class CostModel:
    """Convert :class:`OpCounter` tallies to modeled seconds."""

    def __init__(self, gpu: GpuSpec = TESLA_C2070, cpu: CpuSpec = XEON_E7540,
                 barrier: BarrierModel = HIERARCHICAL) -> None:
        self.gpu = gpu
        self.cpu = cpu
        self.barrier = barrier

    # ------------------------------------------------------------------ #
    def gpu_time(self, counter: OpCounter) -> float:
        """Modeled GPU seconds for everything recorded in ``counter``.

        This is the one pricer: :class:`repro.obs.Tracer` advances its
        clock by how much this figure rose, so a trace adds up to it.

        The counter's configuration scalars price the whole counter:
        ``barrier_kind`` (0 fence, 1 hierarchical, 2 naive-atomic;
        default this model's ``barrier``), the launch geometry
        ``cfg_blocks``/``cfg_tpb`` (default 8 blocks per SM of 256
        threads) and ``fp_scale``.  A driver records them before its
        first launch.
        """
        spec = self.gpu
        bar = self.barrier
        kind = counter.scalars.get("barrier_kind")
        if kind is not None:
            from .sync import FENCE, HIERARCHICAL as HIER, NAIVE_ATOMIC
            bar = (FENCE, HIER, NAIVE_ATOMIC)[int(kind)]
        blocks = int(counter.scalars.get("cfg_blocks", spec.num_sms * 8))
        threads_per_block = int(counter.scalars.get("cfg_tpb", 256))
        # fp_scale < 1 models single-precision arithmetic (Fermi FP32
        # issues at twice the FP64 rate) — recorded by the kernel itself.
        fp_scale = float(counter.scalars.get("fp_scale", 1.0))
        cycles = 0.0
        for _, ks in counter:
            cycles += ks.launches * spec.kernel_launch_cycles
            throughput = (ks.issued_lane_steps * GPU_CYCLES_PER_STEP
                          * fp_scale / spec.total_cores)
            # A launch cannot beat its slowest thread (critical path):
            # one lane executes its steps serially at the core clock.
            critical = ks.critical_lane_steps * GPU_CYCLES_PER_STEP * fp_scale
            compute = max(throughput, critical)
            words = ks.word_reads + ks.word_writes
            mem = words / spec.words_per_clock
            cycles += max(compute, mem)
            # Atomics: serialized within each memory partition.
            cycles += ks.atomics * spec.atomic_cycles / (
                GPU_ATOMIC_UNITS * spec.cores_per_sm)
            cycles += ks.barriers * bar.cycles(spec, blocks, threads_per_block)
        # Host-driven reallocations: device-to-device copy traffic plus a
        # dispatch per cudaMalloc/cudaFree pair.
        cycles += counter.scalars.get("realloc_words", 0.0) / spec.words_per_clock
        cycles += counter.scalars.get("reallocs", 0.0) * spec.kernel_launch_cycles
        # In-kernel device-heap allocations (the Kernel-Only strategy and
        # DMR's on-demand mode): ~2k cycles per malloc, serialized on the
        # heap lock in groups.
        cycles += counter.scalars.get("kernel_mallocs", 0.0) * 2_000
        cycles += counter.scalars.get("pta.chunks_malloced", 0.0) * 2_000
        seconds = cycles / spec.clock_hz
        # Explicit host<->device transfers (Fig. 3's cudaMemcpy calls).
        xfer_words = counter.scalars.get("h2d_words", 0.0) + \
            counter.scalars.get("d2h_words", 0.0)
        xfer_calls = counter.scalars.get("xfer_calls", 0.0)
        seconds += xfer_words / spec.pcie_words_per_s
        seconds += xfer_calls * spec.pcie_latency_s
        return seconds

    def _cpu_word_cycles(self) -> float:
        """Average cycles per word on the host, mixing hits and misses."""
        spec = self.cpu
        return ((1.0 - spec.miss_fraction) * spec.cached_mem_cycles
                + spec.miss_fraction * spec.mem_cycles)

    # ------------------------------------------------------------------ #
    def cpu_time(self, counter: OpCounter, threads: int = 48,
                 *, scheduler: bool = True) -> float:
        """Modeled multicore seconds with ``threads`` worker threads."""
        spec = self.cpu
        p = min(threads, spec.cores)
        cycles = spec.startup_cycles if (p > 1 and scheduler) else 0.0
        for _, ks in counter:
            compute = ks.useful_lane_steps * CPU_CYCLES_PER_STEP / p
            words = ks.word_reads + ks.word_writes
            mem = words * self._cpu_word_cycles() / p
            cycles += compute + mem
            cycles += ks.atomics * spec.atomic_cycles / max(1, p // 4)
            if p > 1:
                cycles += ks.barriers * spec.barrier_cycles
            if scheduler:
                cycles += ks.items * spec.sched_cycles / p
        return cycles / spec.clock_hz

    def serial_time(self, counter: OpCounter) -> float:
        """Modeled single-thread seconds (no scheduler, no barriers)."""
        spec = self.cpu
        cycles = 0.0
        for _, ks in counter:
            cycles += ks.useful_lane_steps * CPU_CYCLES_PER_STEP
            words = ks.word_reads + ks.word_writes
            cycles += words * self._cpu_word_cycles()
            cycles += ks.atomics * spec.cached_mem_cycles
        return cycles / spec.clock_hz

    # ------------------------------------------------------------------ #
    def times(self, gpu_counter: OpCounter, cpu_counter: OpCounter,
              serial_counter: OpCounter, *, threads: int = 48
              ) -> ModeledTimes:
        """Bundle the three modeled times for one experiment row."""
        return ModeledTimes(
            gpu=self.gpu_time(gpu_counter),
            cpu_parallel=self.cpu_time(cpu_counter, threads),
            serial=self.serial_time(serial_counter),
        )
