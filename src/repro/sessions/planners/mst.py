"""Incremental MST: maintain the forest, contract only the frontier.

The incremental-connectivity design (Hong/Dhulipala/Shun-style spanning
forest maintenance, recast onto the paper's Boruvka contraction): the
session keeps the current edge list *and* the current MST edge ids.  A
mutation batch invalidates only part of that answer, and the survivors
sparsify the next solve:

* **T\\*** — old MST edges that survived the batch with their weight
  intact.  These are provably still "safe" choices, so they form a
  partial forest.
* **Δ** — edges the batch added or reweighted (tracked by
  :class:`repro.serve.mutations.GraphMutationEffect`).
* **Cross** — edges whose endpoints lie in different components of the
  T\\* forest; only these can repair connectivity the batch broke.

``MST(G') ⊆ T* ∪ Δ ∪ Cross``: any other edge ``e`` connects two nodes
already joined by a T\\* path — the unique old-MST path, every edge of
which had a smaller key than ``e`` before the batch and kept it after
(survivor keys preserve their relative order: weights unchanged, ids
compacted order-preservingly) — so the cycle rule evicts ``e``.

The delta solve is filter-then-finish: one ``O(|E|)`` cut-filter
kernel marks the candidates, then a sort + hook-and-link pass (the
standard GPU union-find idiom, priced at log-depth barriers) finishes
the forest over just the candidate sublist.  That priced model is what
the session's modeled cost reports.  On the host, both the T\\* forest
labels and the finish run as the paper's §6.5 component-based Boruvka
rounds in numpy (:func:`_boruvka_rounds`): per-component minimum edge
key, a 2-cycle break toward the smaller id, a hook, then pointer
jumping.  The host routine is unpriced; it never touches the counter
or the tracer.

The result is byte-identical to a cold full contraction.  The edge key
``(weight << 31) | id`` is a *total* order, so the MST is unique and
any correct algorithm over a candidate superset — the cold Boruvka
contraction included — must select the same edge ids.  The finish keys
each candidate by ``(weight << 31) | position`` in the ascending
candidate list, which orders exactly as the cold key (weight, then
id; ids keep their relative order under compaction).  The priced cost
is ``O(|E| + |cand| log |cand|)`` instead of ``O(rounds x (|V| +
|E|))`` — the whole delta win when the candidate set is near ``|V|``
and the full solve is many rounds over ``|E|``.
"""

from __future__ import annotations

import numpy as np

from ...mst.boruvka_gpu import mst_barrier, mst_input, mst_output, mst_solve
from ...serve.mutations import apply_graph_mutations_tracked
from . import BatchOutcome

__all__ = ["MstPlanner", "forest_components"]


_POS_BITS = 31
_NO_EDGE = np.iinfo(np.int64).max


def _boruvka_rounds(num_nodes: int, u: np.ndarray, v: np.ndarray,
                    w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning forest of the edges ``(u[i], v[i], w[i])``.

    Host-side, unpriced §6.5 Boruvka rounds keyed by ``(w << 31) | i``:
    each component takes its minimum-key crossing edge
    (``np.minimum.at``), a mutual pick (the only cycle unique keys
    allow) keeps the smaller component id as the root, every other
    picking component hooks onto its partner, and pointer jumping
    flattens the hooks.  Edges that stop crossing drop out for good.

    Returns the chosen positions ``i`` in ascending order and each
    node's final component label.
    """
    comp = np.arange(num_nodes, dtype=np.int64)
    key = (np.asarray(w, dtype=np.int64) << _POS_BITS) \
        | np.arange(u.size, dtype=np.int64)
    live = np.arange(u.size, dtype=np.int64)
    chosen = []
    while True:
        cu, cv = comp[u[live]], comp[v[live]]
        crossing = cu != cv
        if not crossing.any():
            break
        live, cu, cv = live[crossing], cu[crossing], cv[crossing]
        best = np.full(num_nodes, _NO_EDGE, dtype=np.int64)
        np.minimum.at(best, cu, key[live])
        np.minimum.at(best, cv, key[live])
        roots = np.flatnonzero(best != _NO_EDGE)
        pick = best[roots] & ((1 << _POS_BITS) - 1)
        pu = comp[u[pick]]
        partner = np.where(pu == roots, comp[v[pick]], pu)
        hook = np.arange(num_nodes, dtype=np.int64)
        hook[roots] = partner
        stays = (hook[partner] == roots) & (roots < partner)
        hook[roots[stays]] = roots[stays]
        chosen.append(pick[~stays])
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        comp = hook[comp]
    picked = (np.sort(np.concatenate(chosen)) if chosen
              else np.zeros(0, dtype=np.int64))
    return picked, comp


def forest_components(num_nodes: int, u: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Component label per node for the forest with edges ``(u, v)``.

    :func:`_boruvka_rounds` over the forest with all-zero weights; the
    labels are component roots, and the cut filter only compares them.
    """
    return _boruvka_rounds(num_nodes, u, v,
                           np.zeros(u.size, dtype=np.int64))[1]


class MstPlanner:
    """Session state + delta recompute for ``algorithm="mst"``."""

    algorithm = "mst"

    def __init__(self, params, strategy, seed: int) -> None:
        self.params = dict(params)
        self.strategy = dict(strategy)
        self.seed = int(seed)
        self.arrays: tuple = ()
        self.summary: dict = {}

    def open(self, counter, resilience=None) -> None:
        self.n, self.lo, self.hi, self.w = mst_input(self.params, self.seed)
        self._solve_full(counter, resilience)

    def _solve_full(self, counter, resilience) -> None:
        self.arrays, self.summary = mst_solve(
            self.n, self.lo, self.hi, self.w, mst_barrier(self.strategy),
            counter, resilience)
        self.mst = self.arrays[0]

    def _sparse_finish(self, cand: np.ndarray, counter) -> np.ndarray:
        """MST edge ids of the ascending candidate sublist.

        Priced as a sort by the cold solver's exact total key (weight,
        then edge id) followed by a hook-and-link union-find over the
        sorted list.  The candidate set is near ``|V|`` — small enough
        for the single-cooperative-block finish idiom, where the sort's
        log-depth exchanges and the link's pointer chases synchronize
        with intra-block syncs; only the kernel boundaries are priced
        as global barriers, which is exactly why the delta pass beats
        a multi-round global-barrier contraction.

        The host computes the same forest with :func:`_boruvka_rounds`
        keyed by candidate position: ``cand`` is ascending, so position
        order is id order and the unique forest is the one the priced
        sort + link would select.
        """
        k = int(cand.size)
        counter.launch("sessions.mst.sort", items=k, word_reads=2 * k,
                       word_writes=k, barriers=1)
        picked, _ = _boruvka_rounds(self.n, self.lo[cand], self.hi[cand],
                                    self.w[cand])
        counter.launch("sessions.mst.link", items=k,
                       word_reads=4 * k,
                       word_writes=int(picked.size) + self.n, barriers=1)
        return cand[picked]

    def apply_batch(self, ops, counter, threshold: float,
                    resilience=None) -> BatchOutcome:
        old_edges = self.lo.size
        self.lo, self.hi, self.w, eff = apply_graph_mutations_tracked(
            self.n, self.lo, self.hi, self.w, ops)
        m = self.lo.size

        identity = (m == old_edges and not eff.changed.any()
                    and bool((eff.index_map
                              == np.arange(old_edges)).all()))
        if identity:
            return BatchOutcome(mode="cached", dirty=0, population=m,
                                note="batch left the edge list unchanged")

        # Survivors of the old tree, minus any whose weight moved.
        mapped = (eff.index_map[self.mst] if self.mst.size
                  else np.zeros(0, dtype=np.int64))
        survivors = mapped[mapped >= 0]
        t_star = survivors[~eff.changed[survivors]]
        comp = forest_components(self.n, self.lo[t_star], self.hi[t_star])
        # T* ∪ Δ ∪ Cross as a mask, so ``cand`` comes out ascending.
        in_cand = (comp[self.lo] != comp[self.hi]) | eff.changed
        in_cand[t_star] = True
        cand = np.flatnonzero(in_cand)
        dirty = int(cand.size)

        outcome = BatchOutcome(mode="delta", dirty=dirty, population=m)
        if m == 0:
            self.mst = np.zeros(0, dtype=np.int64)
            self.arrays, self.summary = mst_output(self.mst, self.w, 0,
                                                   self.n)
            outcome.note = "edge list emptied; trivial forest"
            return outcome
        if outcome.dirty_fraction > threshold:
            self._solve_full(counter, resilience)
            outcome.mode = "full"
            outcome.note = (f"dirty fraction {outcome.dirty_fraction:.2f} "
                            f"over threshold {threshold:.2f}")
            return outcome

        # Price the planner's own kernels: rebuilding the T* forest
        # labels and the one-pass cut filter over the full edge list.
        counter.launch("sessions.mst.forest", items=self.n,
                       word_reads=2 * int(t_star.size),
                       word_writes=self.n, barriers=1)
        counter.launch("sessions.mst.cut", items=m, word_reads=3 * m,
                       word_writes=dirty, barriers=1)
        self.mst = self._sparse_finish(cand, counter)
        self.arrays, self.summary = mst_output(
            self.mst, self.w, 0, self.n - int(self.mst.size))
        return outcome
