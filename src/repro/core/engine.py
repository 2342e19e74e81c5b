"""A generic morph-algorithm round engine.

Every GPU morph implementation in this repository — DMR refinement,
concurrent Delaunay insertion — follows one round skeleton:

    while work remains:
        plan:   each active item computes the subgraph it must own
        mark:   3-phase conflict resolution over the claimed elements
        apply:  winners mutate the graph; losers back off and retry

:func:`run_morph_rounds` packages that skeleton for new algorithms: the
caller supplies three callbacks and gets conflict resolution, progress
guarantees, per-round accounting and abort statistics for free.  The
engine is deliberately small — it is the "insights into how other morph
algorithms can be efficiently implemented" (Section 1) distilled into a
reusable harness, and the test suite exercises it on a workload none of
the four paper algorithms cover (greedy graph coloring by speculative
recoloring).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import EngineStalled, MaxRoundsExceeded
from ..resilience.policy import launch_ok
from ..resilience.watchdog import StallLadder
from ..vgpu.instrument import SANITIZER, trace_gauge, trace_span
from .conflict import three_phase_mark
from .counters import OpCounter
from .ragged import Ragged

__all__ = ["MorphPlan", "MorphStats", "EngineCheckpoint", "run_morph_rounds"]


@dataclass
class MorphPlan:
    """One item's planned operation: the elements it must own, plus an
    opaque token handed back to ``apply``."""

    item: int
    claims: Sequence[int]
    token: object = None


@dataclass
class MorphStats:
    rounds: int = 0
    applied: int = 0
    aborted: int = 0
    parallelism: list = field(default_factory=list)

    @property
    def abort_ratio(self) -> float:
        total = self.applied + self.aborted
        return self.aborted / total if total else 0.0

    def merge(self, other: "MorphStats") -> None:
        """Fold another run's tallies into this one (lossless: the
        per-round parallelism profile concatenates in run order)."""
        self.rounds += other.rounds
        self.applied += other.applied
        self.aborted += other.aborted
        self.parallelism.extend(other.parallelism)

    def __add__(self, other: "MorphStats") -> "MorphStats":
        if not isinstance(other, MorphStats):
            return NotImplemented
        out = MorphStats()
        out.merge(self)
        out.merge(other)
        return out

    def __radd__(self, other) -> "MorphStats":
        if other == 0:
            return MorphStats() + self
        return NotImplemented


@dataclass
class EngineCheckpoint:
    """Round-granular engine state, captured between rounds.

    A checkpoint is taken at a *consistent* point — after round
    ``round``'s applies, counter launch, and stall bookkeeping, before
    any of round ``round + 1``'s RNG draws — so a run resumed from it
    replays the remaining rounds exactly.  ``payload`` is whatever the
    caller's ``snapshot()`` returned (its own mutable state, e.g. a
    graph copy); the engine never interprets it.  All fields are plain
    picklable objects, so a checkpoint can cross a process boundary or
    a crash (see :mod:`repro.serve.checkpoint`).
    """

    round: int
    stats: MorphStats
    counter: OpCounter
    rng_state: dict
    payload: object = None
    stalled: int = 0
    escalation: int = 0


def run_morph_rounds(
    active: Callable[[], Sequence[int]],
    plan: Callable[[Sequence[int], np.random.Generator], Iterable[MorphPlan]],
    apply: Callable[[MorphPlan], bool],
    num_elements: Callable[[], int],
    *,
    rng: np.random.Generator | None = None,
    counter: OpCounter | None = None,
    kernel: str = "morph.round",
    max_rounds: int = 1_000_000,
    ensure_progress: bool = True,
    round_hook: Callable[[int], None] | None = None,
    checkpoint_every: int = 0,
    snapshot: Callable[[], object] | None = None,
    on_checkpoint: Callable[[EngineCheckpoint], None] | None = None,
    resume: EngineCheckpoint | None = None,
    resilience=None,
) -> MorphStats:
    """Drive plan/mark/apply rounds until ``active()`` is empty.

    * ``active()`` — current work items (re-evaluated every round);
    * ``plan(items, rng)`` — yields a :class:`MorphPlan` per item that
      still wants to run (items may drop out by yielding nothing);
    * ``apply(plan)`` — performs a winner's mutation; returns False to
      signal a failed (retryable) application;
    * ``num_elements()`` — size of the claimable element space.

    Checkpoint/retry support (consumed by :mod:`repro.serve`):

    * ``round_hook(round)`` runs at the top of each round, before any
      RNG draw or mutation — the injection site for cooperative
      timeouts and deterministic fault injection.  An exception it
      raises aborts the run with all state from completed rounds
      intact (the last checkpoint is still consistent).
    * Every ``checkpoint_every`` completed rounds the engine hands an
      :class:`EngineCheckpoint` to ``on_checkpoint``; the caller's
      ``snapshot()`` supplies the payload and must copy any state it
      returns.
    * ``resume`` restores a prior checkpoint: statistics, RNG state
      and (when ``counter`` is not given) the counter continue from
      it.  The caller must have restored its own state from
      ``resume.payload`` first.  The resumed run is byte-identical to
      the uninterrupted one.

    Stall handling (see :mod:`repro.resilience.watchdog`): when a round
    with pending plans makes no progress twice in a row, the engine
    escalates through a seeded ladder — re-randomize conflict
    priorities, shrink the batch, serialize the worklist — and only
    raises the typed :class:`repro.errors.EngineStalled` when every
    level stays winless.  The ladder's RNG is private (derived from the
    escalation seed, never the main ``rng``), so runs that never stall
    are byte-identical to what they always were.  Exceeding
    ``max_rounds`` raises :class:`repro.errors.MaxRoundsExceeded`.
    Both are ``RuntimeError`` subclasses.

    ``resilience`` (opt-in, a :class:`repro.resilience.Resilience`)
    absorbs transient :class:`repro.errors.KernelAborted` faults at
    round boundaries by re-issuing the round (up to the policy's retry
    budget) and supplies the ladder's configuration; without it, an
    injected abort propagates typed.
    """
    rng = rng or np.random.default_rng(0)
    if counter is not None:
        ctr = counter
    elif resume is not None:
        ctr = resume.counter
    else:
        ctr = OpCounter()
    stats = MorphStats()
    if resume is not None:
        stats.merge(copy.deepcopy(resume.stats))
        rng.bit_generator.state = copy.deepcopy(resume.rng_state)
    stalled = resume.stalled if resume is not None else 0
    if resilience is not None:
        pol = resilience.policy
        ladder = StallLadder(seed=pol.escalation_seed,
                             max_level=pol.max_escalations)
        stall_rounds = pol.stall_rounds
    else:
        ladder = StallLadder()
        stall_rounds = 2
    if resume is not None:
        ladder.level = getattr(resume, "escalation", 0)
    while stats.rounds < max_rounds:
        items = list(active())
        if not items:
            return stats
        if not launch_ok(resilience, kernel):
            continue        # absorbed transient abort: re-issue the round
        stats.rounds += 1
        if round_hook is not None:
            round_hook(stats.rounds)
        plans = list(plan(items, rng))
        if not plans:
            return stats
        plans = ladder.select(plans)
        claims = Ragged.from_lists([list(p.claims) for p in plans])
        # One kernel scope per round: the sanitizer attributes the
        # marking audit and the winners' apply-phase stores to it, and
        # the ownership granted by the marking covers the applies.
        san = SANITIZER.current
        if san is not None:
            san.on_kernel_begin(kernel, round=stats.rounds)
        with trace_span(kernel, cat="iteration", round=stats.rounds):
            trace_gauge("morph.active", len(plans))
            prios = ladder.priorities(len(plans), stats.rounds)
            if prios is None:
                prios = rng.permutation(len(plans))
            res = three_phase_mark(num_elements(), claims, rng,
                                   priorities=prios,
                                   ensure_progress=ensure_progress)
            wins = 0
            for j in np.flatnonzero(res.winners):
                if apply(plans[int(j)]):
                    wins += 1
                else:
                    stats.aborted += 1
            if san is not None:
                san.on_kernel_end(kernel)
            stats.applied += wins
            stats.aborted += res.num_aborted
            stats.parallelism.append(wins)
            trace_gauge("morph.applied", wins)
            ctr.launch(kernel, items=len(plans),
                       aborted=len(plans) - wins,
                       barriers=res.barriers + 1,
                       word_writes=res.mark_writes,
                       work_per_thread=claims.lengths())
        if wins == 0:
            stalled += 1
            if stalled >= stall_rounds:
                if not ladder.escalate(resilience):
                    raise EngineStalled(
                        "morph engine stalled: no winner applied in "
                        f"{stalled} consecutive rounds at escalation "
                        f"level {ladder.level} ({ladder.name})",
                        rounds=stats.rounds, pending=len(plans),
                        escalation=ladder.level)
                stalled = 0     # the new level gets its own budget
        else:
            stalled = 0
            ladder.reset(resilience)
        if (checkpoint_every > 0 and on_checkpoint is not None
                and stats.rounds % checkpoint_every == 0):
            on_checkpoint(EngineCheckpoint(
                round=stats.rounds,
                stats=copy.deepcopy(stats),
                counter=copy.deepcopy(ctr),
                rng_state=copy.deepcopy(rng.bit_generator.state),
                payload=snapshot() if snapshot is not None else None,
                stalled=stalled,
                escalation=ladder.level))
    raise MaxRoundsExceeded("morph engine exceeded max_rounds",
                            rounds=stats.rounds)
