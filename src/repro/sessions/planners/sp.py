"""Session planner for survey propagation: honest about globality.

SP's result is a trajectory, not a fixed point: message initialization,
decimation order, and the WalkSAT endgame all draw from one RNG stream
whose consumption pattern depends on the *entire* formula.  Removing or
adding a single clause shifts every subsequent draw, so no local
recompute can reproduce the cold answer byte-for-byte — and the
differential guarantee outranks speed.  The planner therefore:

* maintains the CNF through
  :func:`repro.serve.mutations.apply_clause_mutations_tracked`, which
  reports the clauses each op added and dropped;
* measures the dirty region honestly — the variable set reachable from
  mutated clauses through clause-variable incidence, i.e. everything a
  message-passing delta pass *would* have to re-relax;
* serves unchanged batches from cache and otherwise recomputes fully
  (``mode="full"``), so the dirty-fraction gauge quantifies exactly
  what a trajectory-independent solver would unlock.
"""

from __future__ import annotations

import numpy as np

from ...satsp.sp import sp_config, sp_input, sp_solve
from ...serve.mutations import apply_clause_mutations_tracked
from . import BatchOutcome

__all__ = ["SpPlanner", "reachable_variables"]


def reachable_variables(vars_: np.ndarray, num_vars: int,
                        seed_vars: np.ndarray) -> int:
    """Variables reachable from ``seed_vars`` through shared clauses.

    ``vars_`` is the ``(clauses, k)`` CNF variable matrix; reachability
    is the transitive closure of "appears in a clause with", the sound
    invalidation region for message passing.
    """
    if num_vars == 0 or seed_vars.size == 0:
        return 0
    reached = np.zeros(num_vars, dtype=bool)
    reached[seed_vars] = True
    if vars_.size == 0:
        return int(reached.sum())
    while True:
        before = int(reached.sum())
        hit = reached[vars_].any(axis=1)
        reached[np.unique(vars_[hit])] = True
        if int(reached.sum()) == before:
            return before


class SpPlanner:
    """Session state + conservative recompute for ``algorithm="sp"``."""

    algorithm = "sp"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter) -> None:
        self.cnf = sp_input(self.params, self.seed)
        self._solve_full(counter)

    def _solve_full(self, counter) -> None:
        self.arrays, self.summary = sp_solve(
            self.cnf, sp_config(self.strategy, self.seed), counter)

    def apply_batch(self, ops, counter, threshold: float) -> BatchOutcome:
        self.cnf, changes = apply_clause_mutations_tracked(self.cnf, ops)
        rows = [c.vars for pair in changes for c in pair]
        if not sum(r.shape[0] for r in rows):
            return BatchOutcome(mode="cached", dirty=0,
                                population=self.cnf.num_vars,
                                note="batch left the formula unchanged")
        seeds = np.unique(np.concatenate(rows))
        dirty = reachable_variables(self.cnf.vars, self.cnf.num_vars, seeds)
        self._solve_full(counter)
        return BatchOutcome(
            mode="full", dirty=dirty, population=self.cnf.num_vars,
            note="SP draws one global RNG trajectory; only a full solve "
                 "reproduces the cold result")
