"""Per-algorithm delta planners for incremental sessions.

A planner owns one session's resumable input state (edge list,
constraint set, CNF, point batch, or staged mesh) and knows, for each
mutation batch, how much of the previous answer survives:

* :mod:`~repro.sessions.planners.mst` — maintains the component forest
  and re-runs Boruvka only on a sparsified candidate edge set (the
  incremental-connectivity design: surviving tree edges + changed
  edges + forest-crossing edges);
* :mod:`~repro.sessions.planners.pta` — warm-starts the Andersen
  fixed point, re-seeding the worklist from constraint-graph nodes the
  new constraints touch (adds are monotone; drops force a full solve);
* :mod:`~repro.sessions.planners.mesh` — DMR keeps the *unrefined*
  staged mesh so new ``insert_points`` ops replay incrementally before
  re-refinement; insertion reuses its cached answer on no-op batches;
* :mod:`~repro.sessions.planners.sp` /
  :mod:`~repro.sessions.planners.engine` — conservative: they measure
  the dirty region honestly (clause-reachability closure, endpoints of
  changed edges) but always recompute on effective change, because
  their drivers' results depend on a global RNG trajectory that no
  local recompute can reproduce.

A planner's ``open`` and its full recompute are not planner code: they
call the functions the algorithm's cold :mod:`repro.serve` adapter is
composed of (``mst_input``/``mst_solve`` in
:mod:`repro.mst.boruvka_gpu`, ``pta_input``/``pta_solve`` in
:mod:`repro.pta.andersen`, and so on), so they give the adapter's
arrays, summary and modeled cost by construction.  Only the delta
paths are written here.

Every planner upholds the differential guarantee: after ``apply_batch``
its ``arrays`` are byte-identical to what the cold adapter returns on
the equivalently mutated input.  A planner that cannot do that
incrementally for some batch must say so (``mode="full"``) and
recompute — never guess.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchOutcome", "planner_for", "planned_algorithms"]


@dataclass
class BatchOutcome:
    """What one ``apply_batch`` did and how dirty the input was.

    ``mode`` is ``"delta"`` (recomputed only the affected region),
    ``"full"`` (fell back to a cold recompute — non-monotone mutation,
    trajectory-dependent driver, or dirty fraction above the session
    threshold), or ``"cached"`` (the batch changed nothing; the
    previous answer was served as-is).
    """

    mode: str
    #: elements of the input the batch invalidated (algorithm-specific
    #: unit: candidate edges, constraints, reachable variables, points)
    dirty: int
    #: population the dirty count is measured against
    population: int
    note: str = ""

    @property
    def dirty_fraction(self) -> float:
        return self.dirty / self.population if self.population else 0.0


def planner_for(algorithm: str):
    """The planner class registered for ``algorithm`` (lazy imports —
    a session should only pay for the one driver stack it uses)."""
    if algorithm == "mst":
        from .mst import MstPlanner
        return MstPlanner
    if algorithm == "pta":
        from .pta import PtaPlanner
        return PtaPlanner
    if algorithm == "sp":
        from .sp import SpPlanner
        return SpPlanner
    if algorithm == "dmr":
        from .mesh import DmrPlanner
        return DmrPlanner
    if algorithm == "insertion":
        from .mesh import InsertionPlanner
        return InsertionPlanner
    if algorithm == "engine":
        from .engine import EnginePlanner
        return EnginePlanner
    raise KeyError(
        f"no session planner for algorithm {algorithm!r}; known: "
        f"{', '.join(planned_algorithms())}")


def planned_algorithms() -> list[str]:
    return ["dmr", "engine", "insertion", "mst", "pta", "sp"]
