"""Speculative multicore DMR (the Galois-baseline role, Section 8.1).

Models the Galois 2.1.4 refinement the paper compares against: ``P``
worker threads repeatedly grab bad triangles from a work-stealing
worklist, *speculatively* expand cavities while acquiring abstract
locks on every touched element, and roll back when a lock is already
held (optimistic parallelism [16]).

The emulation is round-based: each round samples up to ``P`` in-flight
items (work stealing spreads them over the worklist), plans each with
exact arithmetic, resolves conflicts in arrival order (first acquirer
wins, later overlapping transactions abort and retry), and applies the
winners.  Aborted speculation is *counted work* — that is what makes
speculative multicore slower per item than conflict-free execution.

Costs recorded per round: planning/rewrite work for all attempts
(winners and aborts), two lock atomics per claimed element, one
scheduler interaction per item, and a round barrier (the emulation is
bulk-synchronous; real Galois is asynchronous, which the per-item
scheduler cost approximates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.counters import OpCounter
from ..errors import CavityError
from ..meshing.mesh import TriMesh
from .plan import apply_plan, plan_refinement

__all__ = ["refine_galois", "GaloisResult"]


@dataclass
class GaloisResult:
    mesh: TriMesh
    counter: OpCounter
    threads: int
    rounds: int
    processed: int
    aborted: int
    points_added: int

    @property
    def converged(self) -> bool:
        return self.mesh.bad_slots().size == 0

    @property
    def abort_ratio(self) -> float:
        total = self.processed + self.aborted
        return self.aborted / total if total else 0.0


def refine_galois(mesh: TriMesh, threads: int = 48, *, seed: int = 0,
                  max_rounds: int = 1_000_000,
                  counter: OpCounter | None = None) -> GaloisResult:
    """Refine ``mesh`` in place with ``P = threads`` speculative workers."""
    if threads < 1:
        raise ValueError("need at least one thread")
    rng = np.random.default_rng(seed)
    ctr = counter or OpCounter()
    free: list[int] = []
    processed = aborted = added = rounds = 0

    def take_slots(need: int) -> np.ndarray:
        nonlocal free
        while len(free) < need:
            if mesh.n_tris >= mesh.tri.shape[0]:
                mesh.ensure_tri_capacity(int(mesh.tri.shape[0] * 1.5) + 8)
            free.append(mesh.n_tris)
            mesh.n_tris += 1
        return np.asarray(free[:need], dtype=np.int64)

    from .refine import _plan_batch  # deferred import (module cycle)

    while rounds < max_rounds:
        bad = mesh.bad_slots()
        if bad.size == 0:
            break
        rounds += 1
        k = min(threads, bad.size)
        inflight = bad[np.sort(rng.choice(bad.size, size=k, replace=False))] \
            if k < bad.size else bad
        plans, _ = _plan_batch(mesh, inflight, np.float64, rng)
        locked: set[int] = set()
        round_work = np.zeros(k, dtype=np.int64)
        reads = writes = atomics = 0
        wins = 0
        for j, p in enumerate(plans):
            if not p.ok:
                p = plan_refinement(mesh, p.slot, rng=rng)
            if not p.ok:
                ctr.bump("skipped." + p.reason)
                if p.reason not in ("deleted",):
                    mesh.isbad[p.slot] = False  # unrefinable; drop
                round_work[j] = 4
                continue
            if mesh.isdel[p.slot] or not mesh.isbad[p.slot]:
                continue
            touched = len(p.cavity) + len(p.ring)
            round_work[j] = p.walk_steps + 3 * touched
            reads += 12 * p.walk_steps + 15 * touched
            atomics += 2 * touched  # lock acquire + release
            if any(t in locked for t in p.claims):
                aborted += 1  # speculation rolled back; work already spent
                continue
            slots = take_slots(len(p.cavity) + 4)
            try:
                info = apply_plan(mesh, p, slots)
            except CavityError:
                aborted += 1  # stale plan behaves like rolled-back work
                continue
            mesh.recompute_quality(info.new_slots)
            locked.update(p.claims)
            locked.update(info.new_slots)
            used = set(info.new_slots)
            free[:] = [s for s in free if s not in used] + list(p.cavity)
            writes += 12 * info.new_size
            round_work[j] += 4 * info.new_size
            processed += 1
            added += 1
            wins += 1
        ctr.launch("galois.refine", items=k, aborted=k - wins,
                   word_reads=reads, word_writes=writes, atomics=atomics,
                   barriers=1, work_per_thread=round_work)
    return GaloisResult(mesh=mesh, counter=ctr, threads=threads,
                        rounds=rounds, processed=processed, aborted=aborted,
                        points_added=added)
