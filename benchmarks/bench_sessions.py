"""Incremental sessions: modeled delta-recompute cost vs. full re-solve.

The :mod:`repro.sessions` pitch is quantitative: for a *small* mutation
batch (≤ 1% of the input), answering from the previous solution should
cost a small fraction of a cold recompute on the §7 cost model.  This
trajectory measures exactly that for the two algorithms with real delta
planners — MST (forest sparsification + sparse finish) and PTA (warm-
started Andersen fixed point) — across seeds, and asserts the headline
≥ 5x modeled-cost win for batches that are ≤ 1% of the input.  The
assertion only applies at full scale: reduced ``REPRO_BENCH_SCALE``
smoke sizes shrink the input until fixed per-batch kernel overheads
dominate, so there the trajectory still records honest numbers but
only the differential identity is enforced.

Every measured session is also verified against a cold full recompute
on the equivalently mutated input — a timing for a wrong answer would
be worse than no timing.

Each row also records host wall time beside the modeled cost: the cold
``Session.open`` (timed after one warm-up session per algorithm, so
imports and lazy set-up stay out of it), the mean ``apply_batch``, and
their ratio.  Wall time is recorded, never asserted: it depends on the
host.  So is ``checkpoint_bytes``, the pickled size of the session
checkpoint after the last batch (what a serving worker writes per
batch).

Emits ``BENCH_sessions.json`` (schema ``repro.bench/1``): one row per
(algorithm, seed) with the full-solve cost, mean delta cost, dirty
fraction, speedup, the three wall-time fields, and the checkpoint size.
"""

from __future__ import annotations

import time

from harness import SCALE, emit, emit_bench, fmt_time, table

from repro.serve.checkpoint import dumps_state
from repro.sessions import Session, SessionSpec

SEEDS = (1, 2, 3)
BATCHES_PER_SESSION = 3


def _scaled(value: int, floor: int = 1) -> int:
    return max(floor, value // SCALE)


def _configs():
    """(algorithm, params, one small batch) at the current scale."""
    return [
        ("mst",
         {"num_nodes": _scaled(4000, 40), "num_edges": _scaled(32000, 160)},
         [{"op": "add_edges", "count": _scaled(30), "seed": 11},
          {"op": "reweight_edges", "count": _scaled(30), "seed": 12}]),
        ("pta",
         {"num_vars": _scaled(1500, 60), "num_constraints": _scaled(6000, 140)},
         [{"op": "add_constraints", "count": _scaled(12), "seed": 21}]),
    ]


def test_session_delta_cost_benchmark():
    rows, bench_rows = [], []
    for algorithm, params, batch in _configs():
        specs = [SessionSpec(name=f"{algorithm}-bench-{seed}",
                             algorithm=algorithm, params=params,
                             strategy={}, seed=seed,
                             batches=[batch] * BATCHES_PER_SESSION)
                 for seed in SEEDS]
        Session.open(specs[0])   # warm-up, untimed
        for seed, spec in zip(SEEDS, specs):
            start = time.perf_counter()
            session = Session.open(spec)
            full_wall = time.perf_counter() - start
            full_cost = session.full_cost_s
            results, apply_walls = [], []
            for ops in spec.batches:
                start = time.perf_counter()
                results.append(session.apply_batch(ops))
                apply_walls.append(time.perf_counter() - start)

            matches, cold = session.verify_full()
            assert matches, (
                f"{algorithm} seed={seed}: session digest "
                f"{session.digest()} != cold {cold}")
            assert all(r.mode == "delta" for r in results), (
                f"{algorithm} seed={seed}: expected pure delta batches, "
                f"got {[r.mode for r in results]}")

            delta_cost = sum(r.cost_s for r in results) / len(results)
            dirty_frac = max(r.dirty_fraction for r in results)
            mutated_frac = (sum(op.get("count", 0) for op in batch)
                            / max(1, results[-1].population))
            speedup = full_cost / delta_cost if delta_cost > 0 else float("inf")
            delta_wall = sum(apply_walls) / len(apply_walls)
            wall_ratio = delta_wall / full_wall
            checkpoint_bytes = len(dumps_state(session.checkpoint()))
            if SCALE == 1 and mutated_frac <= 0.01:
                assert speedup >= 5.0, (
                    f"{algorithm} seed={seed}: small-delta speedup "
                    f"{speedup:.2f}x misses the 5x bar "
                    f"(full {full_cost:.6f}s, delta {delta_cost:.6f}s)")

            rows.append([algorithm, str(seed),
                         str(results[-1].population),
                         f"{mutated_frac:.4f}", f"{dirty_frac:.3f}",
                         fmt_time(full_cost), fmt_time(delta_cost),
                         f"{speedup:.1f}x", fmt_time(full_wall),
                         fmt_time(delta_wall),
                         f"{wall_ratio:.2f}", str(checkpoint_bytes)])
            bench_rows.append({
                "algorithm": algorithm, "seed": seed,
                "population": results[-1].population,
                "mutated_fraction": round(mutated_frac, 6),
                "dirty_fraction": round(dirty_frac, 6),
                "full_cost_s": round(full_cost, 9),
                "delta_cost_s": round(delta_cost, 9),
                "speedup": round(speedup, 3),
                "full_wall_s": round(full_wall, 6),
                "delta_wall_s": round(delta_wall, 6),
                "wall_ratio": round(wall_ratio, 3),
                "checkpoint_bytes": checkpoint_bytes,
            })

    text = table(["algo", "seed", "population", "mutated", "dirty",
                  "full solve", "delta batch", "speedup", "full wall",
                  "delta wall", "wall ratio", "checkpoint B"], rows)
    emit("sessions", text)
    emit_bench("sessions", bench_rows)


if __name__ == "__main__":
    test_session_delta_cost_benchmark()
