"""Incremental Andersen points-to: warm-start the fixed point.

Inclusion-based points-to is a least-fixed-point computation over
monotone rules, so *adding* constraints never invalidates existing
facts — the new fixed point is a superset reachable from the old one.
The planner therefore keeps the solved state (the points-to
:class:`~repro.pta.bitset.BitMatrix` and the induced-edge
:class:`~repro.pta.graph.PullGraph`) and, per batch, re-seeds the
worklist from exactly the nodes the new constraints touch:

* new ``p = &q`` facts mark ``p`` changed (when its set actually grew);
* new copy edges mark their *target* as having gained an incoming edge;
* new load/store constraints are evaluated once against the current
  sets, then participate in the normal changed-source re-evaluation.

The chaotic-iteration sweeps then run the paper's two phases
(§6.4/§8.3) until quiescent, pulling only nodes with a changed or
fresh incoming neighbor.  Because the least fixed point is unique and
the bit-matrix encoding depends only on the fact *set* (never on
discovery order), the warm result is byte-identical to a cold solve of
the full constraint set — the differential guarantee — at a few sparse
sweeps instead of a whole-program solve.

``drop_constraints`` is non-monotone (facts must be retracted), so any
batch containing an effective drop falls back to a full solve — the
honest escape hatch, reported as ``mode="full"``.
"""

from __future__ import annotations

import numpy as np

from ...pta.andersen import (deref_pointers, induced_edges, pta_config,
                             pta_input, pta_output, pta_solve, pull_sweep)
from ...pta.constraints import Constraints, Kind
from ...serve.mutations import apply_constraint_mutations_tracked
from . import BatchOutcome

__all__ = ["PtaPlanner"]

#: warm sweeps are bounded like the cold solver's ``max_rounds``
_MAX_ROUNDS = 10_000


class PtaPlanner:
    """Session state + delta recompute for ``algorithm="pta"``."""

    algorithm = "pta"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.variant, self.chunk_size = pta_config(self.strategy)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter) -> None:
        self.cons = pta_input(self.params, self.seed)
        self._solve_full(counter)

    def _solve_full(self, counter) -> None:
        res = pta_solve(self.cons, self.variant, self.chunk_size, counter)
        self.pts = res.pts
        self.graph = res.graph
        self.arrays, self.summary = pta_output(
            res.pts, res.rounds, res.edges_added, res.propagation_sweeps,
            self.variant)

    def apply_batch(self, ops, counter, threshold: float) -> BatchOutcome:
        self.cons, changes = apply_constraint_mutations_tracked(self.cons,
                                                                ops)
        added = sum(a.num_constraints for a, _ in changes)
        dropped = sum(d.num_constraints for _, d in changes)

        population = max(self.cons.num_constraints, 1)
        dirty = added + dropped
        outcome = BatchOutcome(mode="delta", dirty=dirty,
                               population=population)
        if dirty == 0:
            outcome.mode = "cached"
            outcome.note = "batch left the constraint set unchanged"
            return outcome
        if dropped:
            self._solve_full(counter)
            outcome.mode = "full"
            outcome.note = "drop_constraints retracts facts (non-monotone)"
            return outcome
        if self.variant != "pull":
            self._solve_full(counter)
            outcome.mode = "full"
            outcome.note = "warm start is implemented for the pull variant"
            return outcome
        if outcome.dirty_fraction > threshold:
            self._solve_full(counter)
            outcome.mode = "full"
            outcome.note = (f"dirty fraction {outcome.dirty_fraction:.2f} "
                            f"over threshold {threshold:.2f}")
            return outcome

        delta = Constraints(
            self.cons.num_vars,
            np.concatenate([a.kind for a, _ in changes]),
            np.concatenate([a.lhs for a, _ in changes]),
            np.concatenate([a.rhs for a, _ in changes]))
        self._warm_start(delta, counter)
        return outcome

    def _warm_start(self, delta, counter) -> None:
        """Monotone propagation from the old fixed point + new seeds."""
        pts, graph = self.pts, self.graph
        n = self.cons.num_vars
        W = pts.words

        changed = np.zeros(n, dtype=bool)
        gained = np.zeros(n, dtype=bool)

        # Seed: new address-of facts (changed only where a set grew).
        p_addr, q_addr = delta.of_kind(Kind.ADDRESS_OF)
        if p_addr.size:
            rows = np.unique(p_addr)
            before = pts.bits[rows].copy()
            pts.add(p_addr, q_addr)
            changed[rows] |= np.any(pts.bits[rows] != before, axis=1)
        counter.launch("pta.init", items=int(p_addr.size),
                       word_writes=int(p_addr.size), barriers=1)

        # Seed: new static copy edges; their targets must pull once.
        p_copy, q_copy = delta.of_kind(Kind.COPY)
        edges_added = graph.add_edges(q_copy, p_copy)
        gained[p_copy] = True
        counter.launch("pta.addedge", items=int(p_copy.size),
                       word_writes=2 * int(p_copy.size), barriers=1)

        # Full load/store lists; the delta's rows are the tail (adds
        # concatenate), and are evaluated once regardless of ``changed``.
        loads = self.cons.of_kind(Kind.LOAD)
        stores = self.cons.of_kind(Kind.STORE)
        pointers = deref_pointers(loads, stores)
        fresh = np.zeros(pointers.size, dtype=bool)
        fresh[loads[0].size - delta.of_kind(Kind.LOAD)[0].size:
              loads[0].size] = True
        fresh[pointers.size - delta.of_kind(Kind.STORE)[0].size:] = True

        rounds = sweeps = 0
        while rounds < _MAX_ROUNDS:
            rounds += 1
            # ---- Phase 1: evaluate enabled load/store constraints --- #
            live = changed[pointers] | (fresh if rounds == 1 else False)
            src, dst, sizes = induced_edges(pts, loads, stores, live)
            added = 0
            if src.size:
                added = graph.add_edges(src, dst)
                gained[dst] = True
            edges_added += added
            items = int(live.sum())
            counter.launch("pta.addedge", items=items,
                           word_reads=W * items + int(sizes.sum()),
                           word_writes=2 * added, barriers=1)

            # ---- Phase 2: pull only nodes with a fresh/changed input - #
            changed, pulled = pull_sweep(pts, graph, changed, gained)
            sweeps += 1
            counter.launch("pta.propagate", items=int(pulled.size),
                           word_reads=W * int((graph.deg[pulled] + 1).sum()),
                           word_writes=W * int(changed.sum()), barriers=1)
            gained = np.zeros(n, dtype=bool)
            if not changed.any() and added == 0:
                break
        self.arrays, self.summary = pta_output(pts, rounds, edges_added,
                                               sweeps, self.variant)
