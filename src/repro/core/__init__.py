"""The morph-algorithm toolkit: the paper's Sections 6-7 as a library.

Graph storage (:mod:`.csr`), per-thread ragged claims (:mod:`.ragged`),
3-phase conflict resolution (:mod:`.conflict`), subgraph addition and
deletion strategies (:mod:`.addition`, :mod:`.deletion`), adaptive kernel
configuration (:mod:`.adaptive`), central/local worklists
(:mod:`.worklist`), memory-layout reordering (:mod:`.layout`),
divergence-reducing work sorting (:mod:`.divergence`), ParaMeter-style
parallelism profiling (:mod:`.profiling`) and the operation counters all
measurements flow through (:mod:`.counters`).
"""

from .counters import KernelStats, OpCounter, warp_divergence
from .csr import CSRGraph, DynamicCSR, edges_to_csr
from .ragged import Ragged
from .conflict import MarkResult, three_phase_mark, two_phase_mark, winners_disjoint
from .worklist import CentralWorklist, LocalWorklists
from .addition import (GrowthStrategy, HostOnly, KernelHost, KernelOnly,
                       PreAllocation)
from .deletion import ExplicitDeletion, MarkingDeletion, RecycleDeletion
from .adaptive import (AdaptiveConfig, FeedbackAdaptiveConfig, FixedConfig,
                       adaptive_from_dict)
from .layout import (bfs_permutation, invert_permutation, layout_quality,
                     swap_scan_permutation)
from .divergence import divergence_gain, partition_active, warp_efficiency
from .profiling import ParallelismProfile, greedy_mis, profile_parallelism
from .engine import EngineCheckpoint, MorphPlan, MorphStats, run_morph_rounds
from .traversal import bfs_levels, connected_components, sssp_bellman_ford

__all__ = [
    "KernelStats", "OpCounter", "warp_divergence",
    "CSRGraph", "DynamicCSR", "edges_to_csr", "Ragged",
    "MarkResult", "three_phase_mark", "two_phase_mark", "winners_disjoint",
    "CentralWorklist", "LocalWorklists",
    "GrowthStrategy", "HostOnly", "KernelHost", "KernelOnly",
    "PreAllocation",
    "ExplicitDeletion", "MarkingDeletion", "RecycleDeletion",
    "AdaptiveConfig", "FeedbackAdaptiveConfig", "FixedConfig",
    "adaptive_from_dict",
    "bfs_permutation", "invert_permutation", "layout_quality",
    "swap_scan_permutation",
    "divergence_gain", "partition_active", "warp_efficiency",
    "ParallelismProfile", "greedy_mis", "profile_parallelism",
    "EngineCheckpoint", "MorphPlan", "MorphStats", "run_morph_rounds",
    "bfs_levels", "connected_components", "sssp_bellman_ford",
]
