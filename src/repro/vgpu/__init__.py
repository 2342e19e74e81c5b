"""Virtual GPU substrate.

A bulk-synchronous simulated device standing in for the paper's Tesla
C2070: launch geometry and occupancy (:mod:`.device`), atomics with
simulated race orders (:mod:`.atomics`), global-barrier cost models
(:mod:`.sync`), device memory / chunk / recycle allocators
(:mod:`.memory`), kernel launch bookkeeping and an SPMD generator-thread
executor (:mod:`.kernel`), the counts-to-seconds cost model
(:mod:`.costmodel`), and the sanitizer/tracer/fault/resilience hook
slots every primitive reports through (:mod:`.instrument`, consumed by
:mod:`repro.analysis`, :mod:`repro.obs`, the one fault injector of
:mod:`.faults` and :mod:`repro.resilience`).
"""

from .device import CpuSpec, GpuSpec, LaunchConfig, TESLA_C2070, XEON_E7540
from .sync import BarrierKind, BarrierModel, FENCE, HIERARCHICAL, NAIVE_ATOMIC
from .memory import ChunkAllocator, ChunkList, DeviceAllocator, RecyclePool
from .kernel import KernelLauncher, spmd_launch
from .costmodel import CostModel, ModeledTimes
from .instrument import (FAULTS, RESILIENCE, SANITIZER, TRACER, HookSlot,
                         SanitizerHooks, TracerHooks, record_read,
                         record_write, trace_gauge, trace_span)
from . import atomics, instrument

__all__ = [
    "CpuSpec", "GpuSpec", "LaunchConfig", "TESLA_C2070", "XEON_E7540",
    "BarrierKind", "BarrierModel", "FENCE", "HIERARCHICAL", "NAIVE_ATOMIC",
    "ChunkAllocator", "ChunkList", "DeviceAllocator", "RecyclePool",
    "KernelLauncher", "spmd_launch", "CostModel", "ModeledTimes", "atomics",
    "FAULTS", "RESILIENCE", "SANITIZER", "TRACER", "HookSlot", "instrument",
    "SanitizerHooks", "record_read", "record_write",
    "TracerHooks", "trace_span", "trace_gauge",
]
