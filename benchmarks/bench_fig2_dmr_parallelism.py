"""Fig. 2 — available parallelism profile of DMR (ParaMeter-style).

The paper profiles DMR on a 100K-triangle mesh with half the triangles
initially bad: parallelism starts around 5,000 independent bad
triangles, peaks above 7,000, then decays.  We reproduce the profile at
1/10 scale with a step-synchronous greedy maximal-independent-set
executor over the *claim sets* (cavity + ring) of all active bad
triangles, re-planned each step with the vectorized device planner.
"""

import numpy as np

from harness import SCALE, cached_mesh, emit, table
from repro.dmr import apply_plan
from repro.dmr.refine import _plan_batch
from repro.vgpu.memory import RecyclePool


def available_parallelism_profile(mesh, seed=0, max_steps=2000):
    """Greedy-MIS steps over all currently-bad triangles; returns the
    per-step MIS sizes (the Fig. 2 series)."""
    rng = np.random.default_rng(seed)
    pool = RecyclePool()
    steps = []
    for _ in range(max_steps):
        bad = mesh.bad_slots()
        if bad.size == 0:
            return steps
        plans, _ = _plan_batch(mesh, bad, np.float64, rng)
        claimed: set = set()
        batch = []
        order = rng.permutation(len(plans))
        for i in order:
            p = plans[int(i)]
            if not p.ok:
                continue
            if any(t in claimed for t in p.claims):
                continue
            claimed.update(p.claims)
            batch.append(p)
        if not batch:
            return steps
        steps.append(len(batch))
        new_slots: list[int] = []
        for p in batch:
            slots, new_tail = pool.allocate(len(p.cavity) + 4, mesh.n_tris)
            if new_tail > mesh.tri.shape[0]:
                mesh.ensure_tri_capacity(int(new_tail * 1.5) + 8)
            mesh.n_tris = max(mesh.n_tris, new_tail)
            try:
                info = apply_plan(mesh, p, slots)
            except (RuntimeError, ValueError):
                continue
            new_slots += info.new_slots
            used = set(info.new_slots)
            pool.release(np.asarray(
                [s for s in slots.tolist() if s not in used]
                + list(p.cavity), dtype=np.int64))
        mesh.recompute_quality(new_slots)
    raise RuntimeError("profile did not terminate")


def test_fig2_parallelism_profile(benchmark):
    mesh = cached_mesh(max(500, 10_000 // SCALE), seed=2)
    profile = available_parallelism_profile(mesh.copy())
    arr = np.asarray(profile)
    peak = int(arr.max())
    peak_step = int(arr.argmax())
    # Downsample the series for the table.
    idx = np.unique(np.linspace(0, arr.size - 1, 15).astype(int))
    rows = [(int(i), int(arr[i])) for i in idx]
    txt = "\n".join([
        f"steps: {arr.size}, total work: {int(arr.sum())}, "
        f"peak parallelism: {peak} at step {peak_step}",
        "paper (100K mesh): ~5000 initially, peak >7000, then decay",
        table(["step", "available parallelism"], rows),
    ])
    emit("fig2_dmr_parallelism", txt)

    # Shape assertions: ramp up then decay, peak in the first half,
    # peak well above the tail.
    assert peak_step < arr.size / 2
    assert peak > 4 * arr[-1]
    assert peak > arr[0]  # initial rise, as in the paper

    benchmark.pedantic(
        lambda: available_parallelism_profile(
            cached_mesh(500, seed=3).copy()),
        rounds=1, iterations=1)
