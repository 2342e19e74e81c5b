"""The Session: long-lived engine state + delta recompute per batch.

A :class:`Session` is the serving loop's unit of incrementality.  Open
one from a :class:`~repro.sessions.spec.SessionSpec` (a cold solve of
the initial input), then stream mutation batches through
:meth:`Session.apply_batch`; each batch hands the ops to the
algorithm's delta planner (:mod:`repro.sessions.planners`), which
recomputes only the affected region — or falls back to a full solve
when the mutation is non-monotone, the driver is trajectory-bound, or
the dirty fraction exceeds the spec's threshold.

**The differential guarantee.**  After every batch, the session's
arrays-only digest equals a cold full recompute on the equivalently
mutated input (the cold adapter run with ``params["mutations"]`` set
to the initial mutations plus every batch so far, concatenated).  This
holds *by construction*: delta paths are only taken where the result
is provably identical (unique MST under the total edge-key order;
unique points-to least fixed point; DMR's staged-insert equivalence),
and everything else recomputes.  :meth:`Session.verify_full` runs that
cold recompute on demand and is what the test gate drives.

**Cost accounting.**  Each batch runs against a fresh
:class:`~repro.core.counters.OpCounter` priced by the §7 cost model,
then merges into the session's cumulative counter — so a
kill-and-resumed session's totals equal an uninterrupted run's.  Two
:mod:`repro.obs` gauges are emitted per batch when a tracer is active:
``sessions.dirty_fraction`` and ``sessions.cost_ratio`` (modeled delta
cost over the session's latest full-recompute cost).

**Durability.**  ``checkpoint()`` captures the whole session — spec,
planner state, cumulative counter, mutation log — as an
:class:`~repro.core.engine.EngineCheckpoint` (the same snapshot/resume
container the engine's round checkpoints use), storable through
:class:`~repro.serve.checkpoint.CheckpointStore` versioned history
with keep-latest-N pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.counters import OpCounter
from ..core.engine import EngineCheckpoint, MorphStats
from ..errors import SessionStateError
from ..serve.jobs import digest_arrays
from ..serve.mutations import check_mutations
from ..vgpu.costmodel import CostModel
from ..vgpu.instrument import trace_gauge
from .log import MutationLog
from .planners import planner_for
from .spec import SessionSpec

__all__ = ["BatchResult", "Session", "SESSION_PAYLOAD_KIND"]

#: checkpoint payload discriminator (vs. engine round payloads)
SESSION_PAYLOAD_KIND = "repro.session/1"


@dataclass
class BatchResult:
    """One applied batch: recompute mode, dirty region, modeled cost."""

    batch: int                  # 1-based position in the stream
    ops: int
    mode: str                   # "delta" | "full" | "cached"
    dirty: int
    population: int
    dirty_fraction: float
    digest: str                 # arrays-only digest after this batch
    cost_s: float               # modeled GPU seconds for this batch
    full_cost_s: float          # latest full-recompute reference cost
    cost_ratio: float           # cost_s / full_cost_s
    note: str = ""
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"batch": self.batch, "ops": self.ops, "mode": self.mode,
                "dirty": self.dirty, "population": self.population,
                "dirty_fraction": self.dirty_fraction,
                "digest": self.digest, "cost_s": self.cost_s,
                "full_cost_s": self.full_cost_s,
                "cost_ratio": self.cost_ratio, "note": self.note,
                "summary": dict(self.summary)}


class Session:
    """A resumable incremental solving session over one input."""

    def __init__(self, spec: SessionSpec, planner, counter: OpCounter) -> None:
        self.spec = spec
        self.planner = planner
        self.counter = counter
        self.log = MutationLog(compact_after=spec.compact_after)
        self.applied_batches = 0
        self.full_cost_s = 0.0
        self.results: list[BatchResult] = []
        self._cost = CostModel()

    # ------------------------------------------------------------- #
    # Lifecycle                                                      #
    # ------------------------------------------------------------- #

    @classmethod
    def open(cls, spec: SessionSpec, *, counter: OpCounter | None = None,
             checkpoint: EngineCheckpoint | None = None,
             store=None) -> "Session":
        """Open a session: resume from a checkpoint if one is given (or
        the newest readable one in ``store``), otherwise cold-solve the
        initial input."""
        from ..tune import resolve_strategy

        if checkpoint is None and store is not None:
            loaded = store.load_latest(spec.name)
            if isinstance(loaded, EngineCheckpoint):
                checkpoint = loaded
        if checkpoint is not None:
            return cls.resume(spec, checkpoint, counter=counter)

        strategy = resolve_strategy(spec.algorithm, spec.params,
                                    spec.strategy)
        planner = planner_for(spec.algorithm)(spec.params, strategy,
                                              spec.seed)
        counter = counter if counter is not None else OpCounter()
        session = cls(spec, planner, counter)
        octr = OpCounter()
        planner.open(octr)
        session.full_cost_s = session._cost.gpu_time(octr)
        session.counter.merge(octr)
        return session

    @classmethod
    def resume(cls, spec: SessionSpec, checkpoint: EngineCheckpoint,
               *, counter: OpCounter | None = None) -> "Session":
        """Rebuild a session from a :meth:`checkpoint` snapshot.

        The checkpoint's recorded spec must match ``spec`` exactly —
        resuming foreign state would answer for the wrong input — and a
        mismatch raises :class:`repro.errors.SessionStateError`.
        """
        payload = checkpoint.payload
        if not isinstance(payload, dict) or \
                payload.get("kind") != SESSION_PAYLOAD_KIND:
            raise SessionStateError(
                f"checkpoint for {spec.name!r} is not a session snapshot")
        if payload["spec"] != spec.to_dict():
            raise SessionStateError(
                f"checkpoint for {spec.name!r} was written by a different "
                f"session spec; refusing to resume incremental state "
                f"against a mismatched input")
        session = cls(spec, payload["planner"],
                      counter if counter is not None
                      else checkpoint.counter)
        session.log = MutationLog.from_dict(payload["log"])
        session.applied_batches = int(checkpoint.round)
        session.full_cost_s = float(payload["full_cost_s"])
        session.results = list(payload.get("results", ()))
        return session

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot the whole session at a batch boundary."""
        return EngineCheckpoint(
            round=self.applied_batches, stats=MorphStats(),
            counter=self.counter.copy(), rng_state={},
            payload={"kind": SESSION_PAYLOAD_KIND,
                     "spec": self.spec.to_dict(),
                     "planner": self.planner,
                     "log": self.log.to_dict(),
                     "results": list(self.results),
                     "full_cost_s": self.full_cost_s})

    def save(self, store) -> None:
        """Persist a versioned checkpoint (pruned to keep-latest-N by
        the :class:`~repro.serve.checkpoint.CheckpointStore`)."""
        store.save(self.spec.name, self.checkpoint(),
                   version=self.applied_batches)

    @property
    def checkpoint_due(self) -> bool:
        """Is the newest applied batch a multiple of a nonzero
        ``spec.checkpoint_every``?"""
        n, every = self.applied_batches, self.spec.checkpoint_every
        return every > 0 and n > 0 and n % every == 0

    # ------------------------------------------------------------- #
    # Streaming                                                      #
    # ------------------------------------------------------------- #

    def recorded(self, index: int) -> BatchResult | None:
        """1-based batch ``index``'s result if already applied, ``None``
        if it is the next batch; a gap raises :class:`SessionStateError`."""
        if index == self.applied_batches + 1:
            return None
        if not 1 <= index <= self.applied_batches:
            raise SessionStateError(
                f"session {self.spec.name!r} expected batch "
                f"{self.applied_batches + 1}, got {index}")
        return self.results[index - 1]

    def apply_batch(self, ops) -> BatchResult:
        """Apply one mutation batch; recompute only the affected region."""
        ops = check_mutations(self.spec.algorithm, ops)
        bctr = OpCounter()
        outcome = self.planner.apply_batch(ops, bctr,
                                           self.spec.full_threshold)
        cost = self._cost.gpu_time(bctr)
        self.counter.merge(bctr)
        if outcome.mode == "full":
            self.full_cost_s = cost
        full_ref = self.full_cost_s
        ratio = cost / full_ref if full_ref > 0 else 0.0

        self.applied_batches += 1
        self.log.append(self.applied_batches, ops, outcome.mode)
        trace_gauge("sessions.dirty_fraction", outcome.dirty_fraction)
        trace_gauge("sessions.cost_ratio", ratio)

        result = BatchResult(
            batch=self.applied_batches, ops=len(ops), mode=outcome.mode,
            dirty=outcome.dirty, population=outcome.population,
            dirty_fraction=outcome.dirty_fraction, digest=self.digest(),
            cost_s=cost, full_cost_s=full_ref, cost_ratio=ratio,
            note=outcome.note, summary=dict(self.planner.summary))
        self.results.append(result)
        return result

    # ------------------------------------------------------------- #
    # Results                                                        #
    # ------------------------------------------------------------- #

    @property
    def arrays(self) -> tuple:
        return self.planner.arrays

    @property
    def summary(self) -> dict:
        return dict(self.planner.summary)

    def digest(self) -> str:
        """Arrays-only digest of the current result.

        Deliberately excludes the scalar summary: trajectory facts
        (round counts, sweep counts) legitimately differ between a
        delta pass and a cold solve; the *semantic* result arrays must
        not.
        """
        return digest_arrays(self.planner.arrays)

    def verify_full(self) -> tuple[bool, str]:
        """Run the cold differential check for the current state.

        Recomputes from scratch with the cold serve adapter on the
        equivalently mutated input (initial ``params["mutations"]``
        plus every applied batch, concatenated) and compares arrays
        digests.  Returns ``(matches, cold_digest)``.
        """
        return (self.digest() == (cold := self.cold_digest()), cold)

    def cold_digest(self) -> str:
        """Arrays digest of a cold adapter run on the mutated input."""
        from ..serve.jobs import JobContext, get_adapter

        params = dict(self.spec.params)
        mutations = list(params.get("mutations", ()))
        for entry in self.log.entries:
            mutations.extend(entry["ops"])
        if self.log.compacted_batches:
            raise SessionStateError(
                f"session {self.spec.name!r} compacted "
                f"{self.log.compacted_ops} ops away; the cold "
                f"differential needs the full mutation history "
                f"(raise compact_after)")
        if mutations:
            params["mutations"] = mutations
        adapter = get_adapter(self.spec.algorithm)
        arrays, _ = adapter(params, self.spec.strategy, self.spec.seed,
                            JobContext(counter=OpCounter()))
        return digest_arrays(arrays)
