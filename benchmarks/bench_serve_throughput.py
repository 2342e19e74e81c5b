"""Serving throughput: worker-pool wall clock.

Runs one mixed 8-job batch — DMR refinement, mesh insertion, survey
propagation, points-to analysis, Boruvka MST, and generic-engine
recoloring — through :class:`repro.serve.Scheduler` at ``workers`` = 1,
2, and 4.

Half the batch carries ``FaultPlan(kind="delay")`` injected stalls,
modeling jobs blocked on an external resource (host transfer, cold
cache, I/O).  Those delays are what a worker pool genuinely overlaps
even on a single-core container; on a multicore machine the compute
overlaps as well.  The per-job digests are asserted byte-identical
across all worker counts, so the speedup is not bought with changed
results.

Emits ``BENCH_serve.json`` (schema ``repro.bench/1``) with one row per
worker count.
"""

from __future__ import annotations

import time

from harness import SCALE, emit, emit_bench, table

from repro.serve import FaultPlan, JobSpec, Scheduler

#: injected external-resource stall per delayed job, seconds
DELAY_S = 0.8 / SCALE
#: every attempt number the delay fires on (delays are a property of
#: the job's environment, not of one attempt)
ALL_ATTEMPTS = tuple(range(1, 9))


def batch() -> list[JobSpec]:
    delay = FaultPlan(kind="delay", attempts=ALL_ATTEMPTS, delay_s=DELAY_S)
    s = SCALE
    return [
        JobSpec(name="dmr-a", algorithm="dmr",
                params={"n_triangles": 400 // s}, seed=1, fault=delay),
        JobSpec(name="dmr-b", algorithm="dmr",
                params={"n_triangles": 300 // s}, seed=2),
        JobSpec(name="insert-a", algorithm="insertion",
                params={"n_triangles": 240 // s, "n_points": 10}, seed=3,
                fault=delay),
        JobSpec(name="sp-a", algorithm="sp",
                params={"num_vars": 160 // s, "ratio": 3.4}, seed=4),
        JobSpec(name="pta-a", algorithm="pta",
                params={"num_vars": 100, "num_constraints": 160}, seed=5,
                fault=delay),
        JobSpec(name="mst-a", algorithm="mst",
                params={"num_nodes": 240 // s, "num_edges": 960 // s},
                seed=6),
        JobSpec(name="engine-a", algorithm="engine",
                params={"num_nodes": 140 // s}, seed=7, fault=delay),
        JobSpec(name="mst-b", algorithm="mst",
                params={"num_nodes": 200 // s, "num_edges": 700 // s},
                seed=8),
    ]


def main() -> None:
    rows, bench_rows = [], []
    digests_by_workers = {}
    base_wall = None

    for workers in (1, 2, 4):
        sched = Scheduler(workers=workers, policy="fifo")
        t0 = time.perf_counter()
        report = sched.run_batch(batch())
        wall = time.perf_counter() - t0
        assert report.ok, [r.failures for r in report.failed]
        digests_by_workers[workers] = {
            r.spec.name: r.result.digest for r in report.records}
        if base_wall is None:
            base_wall = wall
        speedup = base_wall / wall
        rows.append([f"workers={workers}", f"{wall:.3f}s",
                     f"{speedup:.2f}x"])
        bench_rows.append({"config": "pool", "workers": workers,
                           "policy": "fifo", "wall_s": round(wall, 4),
                           "speedup_vs_1": round(speedup, 3)})

    first = digests_by_workers[1]
    for workers, digs in digests_by_workers.items():
        assert digs == first, \
            f"digests diverged at workers={workers}"

    w4 = next(r for r in bench_rows
              if r["config"] == "pool" and r["workers"] == 4)
    assert w4["speedup_vs_1"] >= 2.0, \
        f"workers=4 speedup {w4['speedup_vs_1']} < 2x"

    text = table(["configuration", "wall", "speedup"], rows)
    text += ("\n\ndigests byte-identical across workers=1/2/4: yes"
             f"\ninjected external-resource delay per flagged job: "
             f"{DELAY_S:.2f}s (4 of 8 jobs)")
    emit("serve_throughput", text)
    emit_bench("serve", bench_rows)


if __name__ == "__main__":
    main()
