"""Gateway sustained load: warm-pool latency and throughput under quotas.

Drives a closed-loop multi-tenant workload through a running
:class:`repro.gateway.Gateway` — thousands of small mixed jobs (SP,
PTA, engine recoloring, Boruvka MST) plus interleaved incremental
session batches, spread across three tenants whose quotas the load
generator *respects*: a :class:`repro.errors.QuotaExceeded` /
:class:`repro.errors.Overloaded` rejection makes it wait for its oldest
outstanding job, exactly like a well-behaved client under 429/503
backpressure.

Reported per run (rows appended to ``BENCH_serve.json``, schema
``repro.bench/1``, ``config="gateway"``):

* p50/p99 submit-to-done latency and jobs/sec over the whole mix;
* the cold-spawn comparison: time-to-first-result on a freshly spawned
  one-worker pool (``spawn`` start method, so the child pays the full
  driver-stack import) vs the warm pool's p50 — the delta *is* the
  startup cost the prespawned pool amortizes out of every request, and
  the run asserts warm p50 < cold time-to-first-result;
* digest spot checks: a deterministic subsample of jobs is replayed
  through inline :func:`~repro.serve.pool.run_job` and must match
  byte-for-byte (the full per-job identity gate lives in the smoke and
  the --gateway tests).

Latency here is wall seconds of queue wait + worker service — worker
import/startup happens before the load starts and is excluded by
construction (that is the point of a warm pool).
"""

from __future__ import annotations

import statistics
import time

from harness import SCALE, emit, emit_bench, table

from repro.errors import AdmissionRejected
from repro.gateway import Gateway, GatewayConfig, TenantQuota
from repro.serve.jobs import JobSpec
from repro.serve.pool import run_job
from repro.sessions import Session, SessionSpec

WORKERS = 4
TENANTS = ("acme", "globex", "initech")
#: total plain jobs at SCALE=1 (CI smoke divides via REPRO_BENCH_SCALE)
N_JOBS = max(12, 1200 // SCALE)
#: every Nth job is inline-replayed for a digest spot check
SPOT_EVERY = 97

TEMPLATES = (
    ("sp", {"num_vars": 30, "k": 3, "ratio": 3.0}),
    ("pta", {"num_vars": 40, "num_constraints": 80}),
    ("engine", {"num_nodes": 60, "num_edges": 180}),
    ("mst", {"num_nodes": 48, "num_edges": 144}),
)

SESSION_BATCHES = [
    [{"op": "add_edges", "count": 4, "seed": 1}],
    [{"op": "reweight_edges", "count": 3, "seed": 2}],
    [{"op": "drop_edges", "count": 2, "seed": 3}],
    [{"op": "add_edges", "count": 3, "seed": 4}],
]


def job_spec(i: int) -> JobSpec:
    algo, params = TEMPLATES[i % len(TEMPLATES)]
    return JobSpec(name=f"{algo}-{i}", algorithm=algo,
                   params=params, seed=100 + i)


def session_spec(tenant: str) -> SessionSpec:
    return SessionSpec(name=f"{tenant}-stream", algorithm="mst",
                       params={"num_nodes": 80, "num_edges": 240},
                       seed=7)


def submit_with_backpressure(gateway, outstanding, submit_fn):
    """Closed-loop client: on rejection, wait for the oldest in-flight
    handle and retry.  Returns the handle; counts rejections."""
    rejections = 0
    while True:
        try:
            return submit_fn(), rejections
        except AdmissionRejected:
            rejections += 1
            # Well-behaved backpressure: finish something, then retry.
            waiting = [h for h in outstanding if not h.done]
            if waiting:
                waiting[0].wait(300)
            else:
                time.sleep(0.005)


def run_warm() -> dict:
    config = GatewayConfig(
        workers=WORKERS,
        tenants={t: TenantQuota(max_inflight=12, max_queued=24)
                 for t in TENANTS})
    t_start = time.perf_counter()
    with Gateway(config) as gateway:
        startup_s = time.perf_counter() - t_start
        warm_s = max(w.warm_s for w in gateway.pool.workers.values())

        # Time-to-first-result on the *idle* warm pool: the number the
        # cold-spawn run is compared against (same job, no queue wait).
        t_first = time.perf_counter()
        gateway.submit(TENANTS[0], job_spec(0), key="warm-first").wait(300)
        warm_first_s = time.perf_counter() - t_first

        handles, session_handles = [], []
        rejections = 0
        next_batch = {t: 0 for t in TENANTS}
        t0 = time.perf_counter()
        for i in range(N_JOBS):
            tenant = TENANTS[i % len(TENANTS)]
            spec = job_spec(i)
            h, rej = submit_with_backpressure(
                gateway, handles,
                lambda: gateway.submit(tenant, spec))
            rejections += rej
            handles.append(h)
            # Interleave one session batch per tenant every ~N/4 jobs.
            if i % max(1, N_JOBS // (len(SESSION_BATCHES) *
                                     len(TENANTS))) == 0 and \
                    next_batch[tenant] < len(SESSION_BATCHES):
                ops = SESSION_BATCHES[next_batch[tenant]]
                next_batch[tenant] += 1
                hb, rej = submit_with_backpressure(
                    gateway, handles,
                    lambda: gateway.session_batch(
                        tenant, session_spec(tenant), ops))
                rejections += rej
                session_handles.append(hb)
        for h in handles + session_handles:
            h.wait(600)
        wall = time.perf_counter() - t0

        failed = [h for h in handles + session_handles if not h.ok]
        assert not failed, [(h.job_id, h.error) for h in failed[:5]]

        # Digest spot checks against inline run_job.
        for i in range(0, N_JOBS, SPOT_EVERY):
            inline = run_job(job_spec(i))
            assert handles[i].digest() == inline.result.digest, \
                f"digest mismatch on job {i}"
        per_tenant_batches = {t: [] for t in TENANTS}
        for hb in session_handles:
            per_tenant_batches[hb.tenant].append(hb)
        for tenant, hbs in per_tenant_batches.items():
            session = Session.open(session_spec(tenant))
            for k, hb in enumerate(hbs):
                want = session.apply_batch(SESSION_BATCHES[k]).digest
                assert hb.digest() == want, \
                    f"session digest mismatch {tenant} batch {k + 1}"

        latencies = sorted(h.latency_s for h in handles + session_handles)
        retries = sum(h.retries for h in handles + session_handles)
        stats = gateway.stats()
        gateway.drain()

    n = len(latencies)
    return {
        "jobs": len(handles), "session_batches": len(session_handles),
        "tenants": len(TENANTS), "workers": WORKERS,
        "wall_s": round(wall, 4),
        "jobs_per_s": round(n / wall, 2),
        "p50_latency_s": round(latencies[n // 2], 5),
        "p99_latency_s": round(latencies[min(n - 1, (n * 99) // 100)], 5),
        "mean_latency_s": round(statistics.fmean(latencies), 5),
        "rejections": rejections, "retries": retries,
        "startup_s": round(startup_s, 4),
        "worker_warm_s": round(warm_s, 4),
        "warm_first_result_s": round(warm_first_s, 4),
        "events": stats["events"]["counts"],
    }


def run_cold() -> float:
    """Time-to-first-result on a cold ``spawn`` pool (one worker that
    must import the whole driver stack before it can serve)."""
    config = GatewayConfig(workers=1, start_method="spawn",
                           default_quota=TenantQuota())
    t0 = time.perf_counter()
    with Gateway(config) as gateway:
        gateway.submit("cold", job_spec(0)).wait(300)
        return time.perf_counter() - t0


def main() -> None:
    warm = run_warm()
    cold_s = run_cold()

    # The whole point of the warm pool: per-request latency excludes
    # import/startup.  Same job, idle pool, cold spawn vs warm worker —
    # the delta is the startup cost prespawning amortizes away.
    assert warm["warm_first_result_s"] < cold_s, \
        (f"warm first-result {warm['warm_first_result_s']}s not better "
         f"than cold first-result {cold_s:.3f}s")

    total = warm["jobs"] + warm["session_batches"]
    rows = [
        ["mixed jobs + session batches", str(total)],
        ["tenants x workers", f"{warm['tenants']} x {warm['workers']}"],
        ["wall", f"{warm['wall_s']:.2f}s"],
        ["throughput", f"{warm['jobs_per_s']:.1f} jobs/s"],
        ["p50 / p99 latency",
         f"{warm['p50_latency_s'] * 1e3:.1f} / "
         f"{warm['p99_latency_s'] * 1e3:.1f} ms"],
        ["quota rejections absorbed", str(warm["rejections"])],
        ["cold spawn first-result", f"{cold_s:.2f}s"],
        ["warm pool first-result", f"{warm['warm_first_result_s']:.3f}s"],
        ["warm-up per worker (excluded)",
         f"{warm['worker_warm_s']:.3f}s"],
    ]
    text = table(["metric", "value"], rows)
    text += ("\n\nwarm p50 excludes worker import/startup by "
             "construction; cold row pays it inline.\n"
             f"digest spot checks (every {SPOT_EVERY}th job + all "
             "session batches) byte-identical to inline run_job: yes")
    emit("gateway_load", text)
    emit_bench("serve", [
        {"config": "gateway", **{k: v for k, v in warm.items()
                                 if k != "events"}},
        {"config": "gateway_cold", "workers": 1,
         "cold_first_result_s": round(cold_s, 4),
         "warm_first_result_s": warm["warm_first_result_s"],
         "warm_p50_latency_s": warm["p50_latency_s"]},
    ], append=True)


def test_gateway_load_benchmark():
    """CI entry point (reduced scale via REPRO_BENCH_SCALE)."""
    main()


if __name__ == "__main__":
    main()
