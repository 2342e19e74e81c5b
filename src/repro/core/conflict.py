"""Probabilistic 3-phase conflict detection and resolution (Section 7.3).

Morph operations need *exclusive* ownership of a neighborhood (DMR: the
cavity; SP: a literal's clauses; in general any subgraph).  With tens of
thousands of GPU threads, per-element mutexes are hopeless, so the paper
races unsynchronized marks and repairs the damage in phases:

1. **race** — every active thread writes its id onto every element it
   claims.  Concurrent writers to the same element race; one survives.
2. **prioritycheck** — every thread re-reads the mark of each claimed
   element: if a *higher* id holds it, back off; if a *lower* id holds
   it, overwrite with own id (priority).  This phase itself races.
3. **check** — read-only: a thread wins iff every claimed element still
   carries its id.

The two-phase variant (race + prioritycheck, no final check) has a
genuine correctness bug the paper walks through: two threads can both
conclude they own an overlapping cavity.  :func:`two_phase_mark`
implements it verbatim so tests can demonstrate the overlap;
:func:`three_phase_mark` is the safe production engine.

With three or more mutually overlapping claims it is still possible that
*all* claimants abort (the paper's residual live-lock case); callers pass
``ensure_progress=True`` to grant one aborted thread ownership of any
elements not owned by a winner — the "one thread may be allowed to
continue" remedy — with the guarantee checked against actual winners.

Phases are separated by device-wide barriers; the engine reports how many
barriers and atomics/marks it issued so the cost model can price the
scheme (rows 2 of the Fig. 8 breakdown).  Every driver prices its
marking inside its own round launch, so the marking is counted once;
``counter=`` records it as a launch of its own for callers without one.
An active tracer receives the claimant, winner and abort-rate gauges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vgpu.atomics import scatter_write
from ..vgpu.instrument import SANITIZER, TRACER
from .counters import OpCounter
from .ragged import Ragged

__all__ = ["MarkResult", "three_phase_mark", "two_phase_mark", "winners_disjoint"]


@dataclass
class MarkResult:
    """Outcome of one marking round."""

    winners: np.ndarray        # bool per claimant row
    marks: np.ndarray          # element -> claimant row id (or -1)
    barriers: int              # device-wide barriers used
    mark_writes: int           # total mark stores issued

    @property
    def num_winners(self) -> int:
        return int(self.winners.sum())

    @property
    def num_aborted(self) -> int:
        return int((~self.winners).sum())


def _phase_read(marks: np.ndarray, claims: Ragged) -> np.ndarray:
    return marks[claims.values]


def three_phase_mark(
    num_elements: int,
    claims: Ragged,
    rng: np.random.Generator,
    *,
    marks: np.ndarray | None = None,
    priorities: np.ndarray | None = None,
    ensure_progress: bool = False,
    counter: OpCounter | None = None,
    name: str = "conflict3",
) -> MarkResult:
    """Run race -> prioritycheck -> check over the claimed elements.

    ``claims`` row ``i`` lists the element ids thread ``i`` requires
    exclusively.  ``priorities`` (default: the row index itself, i.e. the
    thread id as in the paper) breaks ties: higher priority steals marks.
    ``marks`` may be a caller-owned scratch array (reset lazily by only
    touching claimed elements), avoiding an O(num_elements) clear per
    round.

    Returns a :class:`MarkResult`; ``winners[i]`` is True iff thread ``i``
    owns every element it claimed.  Winning rows are guaranteed mutually
    disjoint (checked by tests, relied upon by every morph client).
    """
    n_threads = claims.num_rows
    if priorities is None:
        priorities = np.arange(n_threads, dtype=np.int64)
    else:
        priorities = np.asarray(priorities, dtype=np.int64)
    if marks is None:
        marks = np.full(num_elements, -1, dtype=np.int64)
    else:
        marks[claims.values] = -1  # lazy reset of touched elements only
    rows = claims.row_ids()
    writes = 0
    san = SANITIZER.current
    if san is not None:
        san.on_kernel_begin(name, threads=n_threads, scheme="3phase")

    # Phase 1: race — unsynchronized stores, shuffled winner.  The race
    # is intentional (``intent="mark"``): the protocol's own check phase
    # adjudicates it, and the sanitizer audits the outcome below.
    scatter_write(marks, claims.values, rows, rng, tids=rows, intent="mark")
    writes += claims.total()
    # --- global barrier ---
    if san is not None:
        san.on_barrier()

    # Phase 2: prioritycheck — read all marks, then higher-priority
    # claimants overwrite lower-priority marks (again racy among equals).
    seen = _phase_read(marks, claims)
    upgrade = priorities[rows] > priorities[seen]
    scatter_write(marks, claims.values[upgrade], rows[upgrade], rng,
                  tids=rows[upgrade], intent="mark")
    writes += int(upgrade.sum())
    # --- global barrier ---
    if san is not None:
        san.on_barrier()

    # Phase 3: check — read-only ownership verification.
    seen = _phase_read(marks, claims)
    lost = np.zeros(n_threads, dtype=bool)
    np.logical_or.at(lost, rows, seen != rows)
    winners = ~lost
    # Rows with zero claims trivially "win" but carry no elements.

    barriers = 2
    if ensure_progress and n_threads and not winners.any():
        # Residual live-lock (>=3-way overlap): let exactly one aborted
        # thread proceed, serialized by the host.
        chosen = int(rng.integers(n_threads))
        winners[chosen] = True
        marks[claims.row(chosen)] = chosen
        barriers += 1
    tr = TRACER.current
    if tr is not None:
        tr.on_gauge("conflict.claimants", n_threads)
        tr.on_gauge("conflict.winners", int(winners.sum()))
        if n_threads:
            tr.on_gauge("conflict.abort_rate",
                        float((~winners).sum()) / n_threads)

    if san is not None:
        san.on_marking(name, claims, winners, scheme="3phase")
        san.on_kernel_end(name)
    if counter is not None:
        counter.launch(
            name,
            items=n_threads,
            aborted=int((~winners).sum()),
            word_reads=2 * claims.total(),
            word_writes=writes,
            atomics=0,
            barriers=barriers,
            work_per_thread=claims.lengths(),
        )
    return MarkResult(winners=winners, marks=marks, barriers=barriers,
                      mark_writes=writes)


def two_phase_mark(
    num_elements: int,
    claims: Ragged,
    rng: np.random.Generator,
    *,
    priorities: np.ndarray | None = None,
    counter: OpCounter | None = None,
    name: str = "conflict2",
) -> MarkResult:
    """The buggy race-and-prioritycheck variant, for the Section 7.3 demo.

    Each thread's prioritycheck interleaves arbitrarily with other
    threads' upgrades.  We model the adversarial interleaving from the
    paper: *all* threads read the post-race marks, decide ownership from
    that stale snapshot, and higher-priority threads upgrade concurrently.
    A thread believes it owns an element if the snapshot showed its own id
    OR a lower-priority id (which it overwrites).  Overlapping winners are
    therefore possible — exactly the race the third phase exists to close.
    """
    n_threads = claims.num_rows
    if priorities is None:
        priorities = np.arange(n_threads, dtype=np.int64)
    else:
        priorities = np.asarray(priorities, dtype=np.int64)
    marks = np.full(num_elements, -1, dtype=np.int64)
    rows = claims.row_ids()
    san = SANITIZER.current
    if san is not None:
        san.on_kernel_begin(name, threads=n_threads, scheme="2phase-unsafe")

    scatter_write(marks, claims.values, rows, rng, tids=rows, intent="mark")
    if san is not None:
        san.on_barrier()
    seen = _phase_read(marks, claims)
    # Thread keeps the element if it sees itself or something weaker.
    keeps = priorities[rows] >= priorities[seen]
    upgrade = priorities[rows] > priorities[seen]
    # sta: ignore[STA201] intentional §7.3 two-phase demo — the race this rule exists to catch
    scatter_write(marks, claims.values[upgrade], rows[upgrade], rng,
                  tids=rows[upgrade], intent="mark")
    lost = np.zeros(n_threads, dtype=bool)
    np.logical_or.at(lost, rows, ~keeps)
    winners = ~lost
    tr = TRACER.current
    if tr is not None:
        tr.on_gauge("conflict.claimants", n_threads)
        tr.on_gauge("conflict.winners", int(winners.sum()))
    if san is not None:
        # The missing check phase is exactly what the sanitizer audits:
        # overlapping "exclusive" winners surface as write-write races.
        san.on_marking(name, claims, winners, scheme="2phase-unsafe")
        san.on_kernel_end(name)
    if counter is not None:
        counter.launch(name, items=n_threads,
                       aborted=int((~winners).sum()),
                       word_reads=claims.total(),
                       word_writes=claims.total() + int(upgrade.sum()),
                       barriers=1, work_per_thread=claims.lengths())
    return MarkResult(winners=winners, marks=marks, barriers=1,
                      mark_writes=claims.total() + int(upgrade.sum()))


def winners_disjoint(claims: Ragged, winners: np.ndarray) -> bool:
    """True iff the winning rows' claimed element sets are pairwise
    disjoint (duplicates *within* one row are not conflicts)."""
    idx = np.flatnonzero(winners)
    if idx.size == 0:
        return True
    rows = [np.unique(claims.row(int(i))) for i in idx]
    total = sum(r.size for r in rows)
    return np.unique(np.concatenate(rows)).size == total if total else True
