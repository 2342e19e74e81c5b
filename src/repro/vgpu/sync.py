"""Global-barrier models (paper Section 7.3, "Barrier implementation").

A CUDA kernel has no hardware-wide barrier; the paper compares three
software schemes:

* :data:`NAIVE_ATOMIC` — every thread atomically decrements a global
  counter and spins on it.  Cost scales with the number of *threads*
  because atomics serialize and the spinning saturates memory bandwidth.
* :data:`HIERARCHICAL` — threads synchronize within their block with
  ``__syncthreads()`` and one representative per block joins a global
  atomic barrier.  Cost scales with the number of *blocks*.
* :data:`FENCE` — Xiao & Feng's lock-free barrier (block 0 gathers
  per-block flags), augmented with ``__threadfence()`` for Fermi's
  incoherent L1 caches as the paper describes.  Cheapest: two passes over
  per-block flags, no atomics.

Because kernels here are vectorized passes, the barrier itself needs no
execution — phases *are* separated.  What matters is the modeled cost, so
each scheme is a small cost function plus bookkeeping that the cost model
and the Fig. 8 ablation consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .device import GpuSpec

__all__ = ["BarrierKind", "BarrierModel", "NAIVE_ATOMIC", "HIERARCHICAL", "FENCE",
           "BARRIERS"]


class BarrierKind(Enum):
    NAIVE_ATOMIC = "naive-atomic"
    HIERARCHICAL = "hierarchical"
    FENCE = "fence"


@dataclass(frozen=True)
class BarrierModel:
    """Cost model for one intra-kernel global barrier crossing."""

    kind: BarrierKind

    def cycles(self, spec: GpuSpec, blocks: int, threads_per_block: int) -> float:
        """Modeled cycles for all participating threads to cross once."""
        threads = blocks * threads_per_block
        if self.kind is BarrierKind.NAIVE_ATOMIC:
            # One serialized atomic per thread + spin traffic until the
            # last thread arrives; the atomic unit is the bottleneck.
            return threads * spec.atomic_cycles + spec.naive_barrier_cycles
        if self.kind is BarrierKind.HIERARCHICAL:
            # __syncthreads() is nearly free; one atomic per block, then a
            # broadcast release.
            return blocks * spec.atomic_cycles + spec.barrier_cycles
        # FENCE: two linear sweeps over per-block flags by block 0 plus a
        # __threadfence() drain on every block; no atomics at all.
        return 2 * blocks * spec.l2_mem_cycles + spec.barrier_cycles // 2

    def atomics(self, blocks: int, threads_per_block: int) -> int:
        """Atomic operations issued per crossing (for the op counters)."""
        if self.kind is BarrierKind.NAIVE_ATOMIC:
            return blocks * threads_per_block
        if self.kind is BarrierKind.HIERARCHICAL:
            return blocks
        return 0

    @property
    def index(self) -> int:
        """Stable code for counter scalars (0 fence, 1 hier, 2 naive)."""
        return {BarrierKind.FENCE: 0, BarrierKind.HIERARCHICAL: 1,
                BarrierKind.NAIVE_ATOMIC: 2}[self.kind]


NAIVE_ATOMIC = BarrierModel(BarrierKind.NAIVE_ATOMIC)
HIERARCHICAL = BarrierModel(BarrierKind.HIERARCHICAL)
FENCE = BarrierModel(BarrierKind.FENCE)

#: the barrier models by the names a strategy dict's ``barrier`` key uses
BARRIERS = {"fence": FENCE, "hierarchical": HIERARCHICAL,
            "naive": NAIVE_ATOMIC}
