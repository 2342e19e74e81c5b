"""The engine stall watchdog: a seeded escalation ladder.

The morph engine's old behavior on two consecutive zero-win rounds was
a hard ``RuntimeError`` — even though the paper's own machinery offers
obvious rescue moves before declaring defeat.  The ladder tries them in
order of increasing cost:

1. **re-randomize** — draw fresh conflict priorities from a *private*
   seeded generator (the stall may be a pathological priority
   assignment, the §7.3 conflict-chain effect);
2. **shrink** — halve the batch (fewer simultaneous claims, fewer
   mutual aborts);
3. **serialize** — run one item per round (conflicts become
   impossible; only a genuinely un-applicable item can still stall).

Only when every level has had its own budget of zero-win rounds does
the engine raise the typed :class:`repro.errors.EngineStalled`.  The
ladder's generator is derived from ``(escalation_seed, level, round)``
— never the engine's main RNG — so a run that never stalls consumes
exactly the RNG stream it always did, and a stalled run degrades
deterministically.
"""

from __future__ import annotations

import numpy as np

from ..vgpu.instrument import RESILIENCE, trace_gauge

__all__ = ["StallLadder"]

#: ladder level names (level 0 = normal operation)
LEVELS = ("normal", "rerandomize", "shrink", "serialize")


class StallLadder:
    """Escalation state for one engine run."""

    def __init__(self, seed: int = 0, max_level: int = 3) -> None:
        self.seed = seed
        self.max_level = min(max_level, len(LEVELS) - 1)
        self.level = 0
        self.escalations = 0

    @property
    def name(self) -> str:
        return LEVELS[self.level]

    def escalate(self) -> bool:
        """Step up one level; ``False`` when the ladder is exhausted.

        The step is logged into the installed
        :class:`~repro.resilience.policy.Resilience`, if any.
        """
        if self.level >= self.max_level:
            return False
        self.level += 1
        self.escalations += 1
        resil = RESILIENCE.current
        # note() mirrors the event as a gauge; emit directly only for
        # the un-managed (resilience-less) default ladder.
        if resil is None:
            trace_gauge("resilience.stall_escalation", self.level)
        else:
            resil.note("stall_escalation", level=self.level, mode=self.name)
        return True

    def reset(self) -> None:
        """Progress was made: drop back to normal operation."""
        resil = RESILIENCE.current
        if self.level and resil is not None:
            resil.note("stall_recovered", from_level=self.level)
        self.level = 0

    def select(self, plans: list) -> list:
        """Apply the current level's batch restriction."""
        if self.level >= 3:
            return plans[:1]
        if self.level >= 2:
            return plans[: max(1, len(plans) // 2)]
        return plans

    def priorities(self, n: int, round_: int) -> np.ndarray | None:
        """Level >= 1: a fresh private priority permutation for this
        round; ``None`` at level 0 (the engine uses its main RNG)."""
        if self.level == 0:
            return None
        gen = np.random.default_rng((self.seed, self.level, round_))
        return gen.permutation(n)
