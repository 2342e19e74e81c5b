"""Concurrent job serving for the morph-algorithm drivers.

The paper's measurements are one-algorithm-at-a-time; this package
treats the six drivers (DMR, mesh point insertion, survey propagation,
points-to analysis, Boruvka MST, and the generic morph engine) as a
*workload* to be scheduled:

* :mod:`.jobs` — :class:`JobSpec` (algorithm + input-generator params +
  strategy + seed + robustness envelope) and the adapter registry;
* :mod:`.pool` — inline job execution with per-job cooperative
  timeouts, bounded exponential-backoff retries, and checkpoint resume
  (the same job body the gateway's warm workers run);
* :mod:`.checkpoint` — durable, atomically-written round-state
  checkpoints;
* :mod:`.faults` — the :class:`FaultPlan` a job carries; the job body
  turns it into one :mod:`repro.vgpu.faults` injector per attempt for
  the job, device and disk fault sites;
* :mod:`.scheduler` — FIFO / SJF batch ordering, per-job tracer spans
  and queue gauges, and the :class:`BatchReport` summary.

This package is the inline, deterministic reference runner: a batch
runs job after job in the calling process.  Worker processes belong to
:mod:`repro.gateway`, which runs the same job body.

Run a batch from the shell::

    python -m repro.serve examples/serve_jobs.json --policy sjf
"""

from .checkpoint import CheckpointStore, dumps_state, loads_state
from .faults import DISK_KINDS, FaultInjected, FaultPlan
from .jobs import (JobContext, JobError, JobResult, JobSpec, digest_arrays,
                   estimate_cost, get_adapter, known_algorithms)
from .mutations import (OPS_BY_ALGORITHM, GraphMutationEffect,
                        apply_clause_mutations, apply_constraint_mutations,
                        apply_graph_mutations, apply_graph_mutations_tracked,
                        apply_point_mutations, check_mutations)
from .pool import JobRecord, JobTimeout, run_job
from .scheduler import BatchReport, Scheduler, order_jobs

__all__ = [
    "CheckpointStore", "dumps_state", "loads_state",
    "FaultInjected", "FaultPlan", "DISK_KINDS",
    "JobContext", "JobError", "JobResult", "JobSpec", "digest_arrays",
    "estimate_cost", "get_adapter", "known_algorithms",
    "OPS_BY_ALGORITHM", "GraphMutationEffect", "check_mutations",
    "apply_graph_mutations", "apply_graph_mutations_tracked",
    "apply_clause_mutations", "apply_constraint_mutations",
    "apply_point_mutations",
    "JobRecord", "JobTimeout", "run_job",
    "BatchReport", "Scheduler", "order_jobs",
]
