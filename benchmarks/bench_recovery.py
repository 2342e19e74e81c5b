"""Durability cost and crash-restart recovery time for the gateway.

Two questions, each with a number and an assertion:

* **What does the write-ahead journal cost?**  The same mixed workload
  runs through two identical gateways — one without a journal, one
  journaling (fsync'd) every admit and done — and the run asserts
  the journaled p99 submit-to-done latency stays within 10% of the
  baseline (plus a small absolute slack so millisecond-scale jitter on
  a fast disk cannot fail the relative bound).  Queue-dominated latency
  is the honest denominator here: that is what a loaded gateway's
  clients actually see.  The two configurations run alternately,
  ``ROUNDS`` times each with the leading side swapped every round, and
  the gate compares their median p99s: a process's first gateway pays
  cold caches, which would otherwise always land on the baseline.

* **How fast is crash-to-first-result?**  A journaled gateway is
  hard-stopped mid-backlog (workers terminated, nothing drained — the
  process-crash shape), a fresh gateway is pointed at the same journal
  directory, and the clock runs from its construction until the first
  requeued job resolves.  Every recovered digest must be byte-identical
  to an inline :func:`~repro.serve.pool.run_job` replay, and every
  pre-crash submission must resolve exactly once — recovery that loses
  or duplicates work would make the speed number meaningless.

Rows land in ``BENCH_serve.json`` (schema ``repro.bench/1``) with
``config="recovery"`` / ``"recovery_overhead"``.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from harness import SCALE, emit, emit_bench, table

from repro.gateway import Gateway, GatewayConfig, TenantQuota
from repro.serve.jobs import JobSpec
from repro.serve.pool import run_job

WORKERS = 2
#: plain jobs per measured run at SCALE=1 (CI divides via REPRO_BENCH_SCALE)
N_JOBS = max(8, 160 // SCALE)
#: relative p99 budget for the journal, plus absolute slack (seconds)
P99_BUDGET = 1.10
P99_SLACK_S = 0.05
#: measured runs of each configuration (alternating, medians compared)
ROUNDS = 3

TEMPLATES = (
    ("sp", {"num_vars": 24, "k": 3, "ratio": 3.0}),
    ("pta", {"num_vars": 30, "num_constraints": 60}),
    ("engine", {"num_nodes": 50, "num_edges": 150}),
    ("mst", {"num_nodes": 40, "num_edges": 120}),
)


def job_spec(i: int) -> JobSpec:
    algo, params = TEMPLATES[i % len(TEMPLATES)]
    return JobSpec(name=f"{algo}-{i}", algorithm=algo,
                   params=params, seed=300 + i)


def _config(journal_dir: str | None) -> GatewayConfig:
    return GatewayConfig(workers=WORKERS, journal_dir=journal_dir,
                         max_total_pending=N_JOBS * 2,
                         default_quota=TenantQuota(max_inflight=N_JOBS * 2,
                                                   max_queued=N_JOBS * 2))


def measure_latency(journal_dir: str | None) -> dict:
    """Submit the whole backlog, wait it out, report the latency shape."""
    with Gateway(_config(journal_dir)) as gateway:
        t0 = time.perf_counter()
        handles = [gateway.submit("bench", job_spec(i))
                   for i in range(N_JOBS)]
        for h in handles:
            h.wait(600)
        wall = time.perf_counter() - t0
        assert all(h.ok for h in handles)
        journal_stats = gateway.stats()["journal"]
        latencies = sorted(h.latency_s for h in handles)
    n = len(latencies)
    return {
        "jobs": n, "workers": WORKERS, "wall_s": round(wall, 4),
        "jobs_per_s": round(n / wall, 2),
        "p50_latency_s": round(latencies[n // 2], 5),
        "p99_latency_s": round(latencies[min(n - 1, (n * 99) // 100)], 5),
        "mean_latency_s": round(statistics.fmean(latencies), 5),
        "journal": journal_stats,
    }


def measure_recovery(journal_dir: str) -> dict:
    """Crash a journaled gateway mid-backlog; time the restart."""
    n = max(6, N_JOBS // 4)
    with Gateway(_config(journal_dir)) as g1:
        job_ids = [g1.submit("bench", job_spec(i)).job_id
                   for i in range(n)]
        # Hard stop with the backlog in flight: workers terminated,
        # nothing drained — the journal is all that survives.
        g1.stop()

    t0 = time.perf_counter()
    g2 = Gateway(_config(journal_dir))
    g2.start()
    started_s = time.perf_counter() - t0
    try:
        handles = [g2.handle(job_id) for job_id in job_ids]
        assert all(h is not None for h in handles), \
            "recovery lost a journaled submission"
        pending = [h for h in handles if not h.done]
        first_s = started_s
        if pending:
            pending[0].wait(600)
            first_s = time.perf_counter() - t0
        for h in handles:
            h.wait(600)
        all_s = time.perf_counter() - t0

        # Recovered outcomes must be byte-identical to inline replays.
        for i, h in enumerate(handles):
            assert h.ok, (h.job_id, h.error)
            inline = run_job(job_spec(i))
            assert h.digest() == inline.result.digest, \
                f"digest mismatch after recovery on job {i}"
        recovered = g2.bus.count("recovered")
        snapshot = g2.stats()
        assert snapshot["admission"]["total_pending"] == 0, \
            "recovery left the admission ledger unsettled"
    finally:
        g2.stop()
    return {
        "jobs": n, "requeued": len(pending),
        "recovered_events": recovered,
        "restart_warm_s": round(started_s, 4),
        "crash_to_first_result_s": round(first_s, 4),
        "crash_to_all_results_s": round(all_s, 4),
    }


def measure_overhead(tmp: str) -> tuple[dict, dict]:
    """Run each configuration ``ROUNDS`` times, alternating which goes
    first; returns the (baseline, journaled) medians."""
    runs: dict = {"base": [], "journaled": []}
    for r in range(ROUNDS):
        for side in (("base", "journaled"), ("journaled", "base"))[r % 2]:
            journal_dir = (str(Path(tmp) / f"journal-overhead-{r}")
                           if side == "journaled" else None)
            runs[side].append(measure_latency(journal_dir))
    return tuple(
        {"jobs": side[-1]["jobs"], "journal": side[-1]["journal"],
         **{key: statistics.median(run[key] for run in side)
            for key in ("wall_s", "p50_latency_s", "p99_latency_s")},
         "p99_runs_s": [run["p99_latency_s"] for run in side]}
        for side in (runs["base"], runs["journaled"]))


def _ms(values) -> str:
    return ", ".join(f"{v * 1e3:.1f}" for v in values) + " ms"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
        base, journaled = measure_overhead(tmp)
        recovery = measure_recovery(str(Path(tmp) / "journal-crash"))

    budget = base["p99_latency_s"] * P99_BUDGET + P99_SLACK_S
    assert journaled["p99_latency_s"] <= budget, \
        (f"journaled median p99 {journaled['p99_latency_s']}s exceeds "
         f"{P99_BUDGET:.0%} of baseline median p99 "
         f"{base['p99_latency_s']}s + {P99_SLACK_S}s slack "
         f"(runs: {journaled['p99_runs_s']} vs {base['p99_runs_s']})")

    overhead_pct = 100.0 * (journaled["p99_latency_s"] -
                            base["p99_latency_s"]) / base["p99_latency_s"]
    per_record_us = 1e6 * journaled["wall_s"] / \
        max(1, journaled["journal"]["records_written"])
    rows = [
        ["jobs x workers", f"{base['jobs']} x {WORKERS}"],
        ["runs per side (alternating)", str(ROUNDS)],
        ["baseline median p50 / p99",
         f"{base['p50_latency_s'] * 1e3:.1f} / "
         f"{base['p99_latency_s'] * 1e3:.1f} ms"],
        ["journaled median p50 / p99",
         f"{journaled['p50_latency_s'] * 1e3:.1f} / "
         f"{journaled['p99_latency_s'] * 1e3:.1f} ms"],
        ["baseline p99 per run", _ms(base["p99_runs_s"])],
        ["journaled p99 per run", _ms(journaled["p99_runs_s"])],
        ["journal p99 overhead", f"{overhead_pct:+.1f}% "
         f"(budget {P99_BUDGET:.0%} + {P99_SLACK_S * 1e3:.0f} ms)"],
        ["journal records / bytes",
         f"{journaled['journal']['records_written']} / "
         f"{journaled['journal']['bytes_written']}"],
        ["wall per journal record", f"{per_record_us:.0f} us"],
        ["crash: jobs in flight", str(recovery["jobs"])],
        ["crash: requeued on restart", str(recovery["requeued"])],
        ["restart to warm", f"{recovery['restart_warm_s']:.3f}s"],
        ["crash to first result",
         f"{recovery['crash_to_first_result_s']:.3f}s"],
        ["crash to full backlog",
         f"{recovery['crash_to_all_results_s']:.3f}s"],
    ]
    text = table(["metric", "value"], rows)
    text += ("\n\nevery recovered digest byte-identical to the inline "
             "run_job replay; admission ledger settled after "
             "recovery: yes")
    emit("recovery", text)
    emit_bench("serve", [
        {"config": "recovery_overhead",
         "baseline_p99_s": base["p99_latency_s"],
         "journaled_p99_s": journaled["p99_latency_s"],
         "baseline_p99_runs_s": base["p99_runs_s"],
         "journaled_p99_runs_s": journaled["p99_runs_s"],
         "rounds": ROUNDS,
         "overhead_pct": round(overhead_pct, 2),
         "records_written": journaled["journal"]["records_written"],
         "bytes_written": journaled["journal"]["bytes_written"],
         "jobs": base["jobs"], "workers": WORKERS},
        {"config": "recovery", **recovery},
    ], append=True)


def test_recovery_benchmark():
    """CI entry point (reduced scale via REPRO_BENCH_SCALE)."""
    main()


if __name__ == "__main__":
    main()
