"""The typed exception hierarchy for the reproduction.

Every failure the system can *reason about* — device faults, engine
stalls, geometric inconsistencies — derives from :class:`ReproError`,
so callers distinguish "the device/algorithm degraded in a way the
resilience layer understands" from a genuine bug (which surfaces as a
plain ``RuntimeError``/``AssertionError`` and is never swallowed by a
retry loop).  :class:`ReproError` still subclasses ``RuntimeError`` so
pre-existing ``except RuntimeError`` call sites keep working during the
migration.

The tree::

    ReproError(RuntimeError)
    ├── DeviceFault                  device-level failure (real or injected)
    │   ├── OutOfDeviceMemory        allocator exhausted (carries sizes)
    │   │   ├── ChunkPoolExhausted   §7.1 Kernel-Only chunk pool dry
    │   │   └── RecyclePoolExhausted §7.2 recycle free-list full
    │   └── KernelAborted            transient launch failure (retryable)
    ├── EngineStalled                no progress after the escalation ladder
    ├── MaxRoundsExceeded            a round/phase budget ran out
    ├── ArtifactError                a persisted artifact failed to load/store
    │   ├── CorruptCheckpoint        unreadable serve checkpoint file
    │   ├── CorruptScenario          unreadable/ill-schemed scenario file
    │   ├── CorruptJournal           unreadable gateway WAL record mid-file
    │   └── StorageFault             a durable write failed at a fault site
    │       ├── DiskFull             out of space (the modeled ENOSPC)
    │       └── TornWrite            write cut mid-stream (torn sector)
    ├── AdmissionRejected            the serving tier refused a submission
    │   ├── QuotaExceeded            a per-tenant quota would be breached
    │   └── Overloaded               global backpressure (queue full/draining)
    └── CavityError                  geometric/structural cavity failure
        ├── WalkStuck                point-location walk did not terminate
        ├── CavityOversized          cavity expansion blew its size cap
        ├── NotStarShaped            new point not visible from the boundary
        ├── PointEscaped             point left the triangulation/bounding box
        └── CavitySlotsExhausted     fan needs more slots than provided
                                     (also a ValueError for compatibility)

Fault *injection* lives in :mod:`repro.vgpu.faults`; degradation
*policies* that catch these types live in :mod:`repro.resilience`.
"""

from __future__ import annotations

__all__ = [
    "ReproError", "DeviceFault", "OutOfDeviceMemory", "ChunkPoolExhausted",
    "RecyclePoolExhausted", "KernelAborted", "EngineStalled",
    "MaxRoundsExceeded", "ArtifactError", "CorruptCheckpoint",
    "CorruptScenario", "CorruptJournal", "StorageFault", "DiskFull",
    "TornWrite",
    "AdmissionRejected", "QuotaExceeded", "Overloaded",
    "CavityError", "WalkStuck", "CavityOversized",
    "NotStarShaped", "PointEscaped", "CavitySlotsExhausted",
]


class ReproError(RuntimeError):
    """Base class for every typed failure in the reproduction."""


# ------------------------------------------------------------------ #
# Device-level faults                                                 #
# ------------------------------------------------------------------ #

class DeviceFault(ReproError):
    """A device-level failure (resource exhaustion or transient abort).

    ``injected`` distinguishes faults fired by a
    :class:`repro.vgpu.faults.FaultInjector` from organically hit
    limits (e.g. a bounded :class:`~repro.vgpu.memory.RecyclePool`).
    """

    def __init__(self, message: str, *, injected: bool = False) -> None:
        super().__init__(message)
        self.injected = injected


class OutOfDeviceMemory(DeviceFault):
    """An allocation could not be satisfied.

    ``requested`` / ``available`` carry the sizes (rows, slots or bytes
    — whatever unit the failing allocator accounts in; ``unit`` names
    it) so callers can size a growth-and-retry instead of guessing.
    """

    def __init__(self, message: str = "", *, requested: int | None = None,
                 available: int | None = None, unit: str = "rows",
                 injected: bool = False) -> None:
        if not message:
            message = (f"out of device memory: requested {requested} "
                       f"{unit}, {available} available")
        super().__init__(message, injected=injected)
        self.requested = requested
        self.available = available
        self.unit = unit


class ChunkPoolExhausted(OutOfDeviceMemory):
    """The §7.1 Kernel-Only chunk pool has no free chunks."""


class RecyclePoolExhausted(OutOfDeviceMemory):
    """The §7.2 recycle free-list cannot absorb more deleted slots."""


class KernelAborted(DeviceFault):
    """A kernel launch failed transiently; the host may relaunch."""

    def __init__(self, message: str = "", *, kernel: str = "?",
                 event: int = 0, injected: bool = False) -> None:
        if not message:
            message = f"kernel {kernel!r} aborted (launch event {event})"
        super().__init__(message, injected=injected)
        self.kernel = kernel
        self.event = event


# ------------------------------------------------------------------ #
# Engine-level failures                                               #
# ------------------------------------------------------------------ #

class EngineStalled(ReproError):
    """The morph engine made no progress even after escalating through
    the watchdog ladder (re-randomize -> shrink -> serialize)."""

    def __init__(self, message: str = "", *, rounds: int = 0,
                 pending: int = 0, escalation: int = 0) -> None:
        if not message:
            message = (f"morph engine stalled after {rounds} rounds "
                       f"({pending} items pending, escalation level "
                       f"{escalation} exhausted)")
        super().__init__(message)
        self.rounds = rounds
        self.pending = pending
        self.escalation = escalation


class MaxRoundsExceeded(ReproError):
    """A driver/engine round (or phase) budget was exhausted."""

    def __init__(self, message: str, *, rounds: int = 0) -> None:
        super().__init__(message)
        self.rounds = rounds


# ------------------------------------------------------------------ #
# Persisted-artifact failures                                         #
# ------------------------------------------------------------------ #

class ArtifactError(ReproError):
    """A persisted artifact (checkpoint, scenario, cache) failed to load.

    The loader *quarantines* the offending file — renames it to
    ``<name>.corrupt`` so the evidence survives and later loads cannot
    trip over it — and then raises, so the caller decides explicitly
    whether a clean restart is acceptable.  ``path`` is the original
    location; ``quarantined`` is where the bytes went (``None`` when
    even the rename failed and the file was dropped).
    """

    def __init__(self, message: str, *, path=None, quarantined=None) -> None:
        super().__init__(message)
        self.path = path
        self.quarantined = quarantined


class CorruptCheckpoint(ArtifactError):
    """A serve checkpoint file could not be unpickled."""


class CorruptScenario(ArtifactError):
    """A scenario file is unreadable, ill-formed, or wrongly schemed."""


class CorruptJournal(ArtifactError):
    """A gateway write-ahead-journal record failed its checksum or parse
    *before* the final record.  (A torn **tail** is the expected shape of
    a crash mid-append and is tolerated by replay; corruption anywhere
    else means the file was damaged after it was written and recovery
    must not guess.)  ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, *, path=None, line: int = 0) -> None:
        super().__init__(message, path=path)
        self.line = line


class StorageFault(ArtifactError):
    """A durable write failed at a modeled disk-fault site.

    Base of :class:`DiskFull` and :class:`TornWrite`; carries the
    target ``path`` and the ``operation`` that was cut short
    (``"write"``, ``"replace"``, ``"fsync"``, ``"append"``) so callers
    and logs can tell *where* in the temp-write/fsync/rename protocol
    the disk gave out.
    """

    def __init__(self, message: str, *, path=None,
                 operation: str = "write") -> None:
        super().__init__(message, path=path)
        self.operation = operation


class DiskFull(StorageFault):
    """A durable write ran out of space (the modeled ENOSPC): a partial
    temp file may remain, but the published artifact is untouched."""


class TornWrite(StorageFault):
    """A durable write was cut mid-stream (the modeled crash/power-loss
    torn sector): only the temp file carries torn bytes under the
    fsync-before-rename protocol; a writer that skipped fsync can be
    left with torn bytes at the *published* path."""


# ------------------------------------------------------------------ #
# Serving-tier admission failures                                     #
# ------------------------------------------------------------------ #

class AdmissionRejected(ReproError):
    """The serving tier (:mod:`repro.gateway`) refused a submission.

    Typed so front ends can map the refusal onto the right wire status
    (quota -> 429, overload -> 503) and so load generators distinguish
    backpressure from genuine job failures.  ``tenant`` names the
    submitting tenant; ``reason`` is the short machine-readable cause
    (``"max_inflight"``, ``"queue_depth"``, ``"cost_budget"``,
    ``"unknown_tenant"``, ``"queue_full"``, ``"draining"``).
    """

    def __init__(self, message: str, *, tenant: str = "?",
                 reason: str = "rejected") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class QuotaExceeded(AdmissionRejected):
    """A per-tenant quota (in-flight, queue depth, or modeled-cost
    budget) would be breached by admitting this job."""


class Overloaded(AdmissionRejected):
    """Global backpressure: the gateway's bounded queue is full, or it
    is draining and no longer accepts work.  Retry later."""


class SessionStateError(ReproError):
    """A :mod:`repro.sessions` session cannot use its persisted state.

    Raised when a resumed checkpoint's spec does not match the session
    being opened (different algorithm, params, strategy, or seed — the
    incremental state would silently answer for the wrong input), or
    when a checkpoint payload is not session-shaped at all.  The caller
    decides whether a cold re-open is acceptable; the session never
    silently discards state it was asked to resume.
    """


# ------------------------------------------------------------------ #
# Cavity / geometric failures                                         #
# ------------------------------------------------------------------ #

class CavityError(ReproError):
    """A cavity operation hit a geometric or structural inconsistency.

    These are *expected* under device-precision speculative planning —
    a winner's plan can be stale or numerically inconsistent — and the
    drivers treat them as retryable aborts.  ``triangle`` / ``point``
    identify the offending elements for diagnostics.
    """

    def __init__(self, message: str, *, triangle: int | None = None,
                 point: tuple[float, float] | None = None) -> None:
        super().__init__(message)
        self.triangle = triangle
        self.point = point


class WalkStuck(CavityError):
    """A point-location walk did not terminate within its step budget."""


class CavityOversized(CavityError):
    """Cavity expansion exceeded its size cap."""


class NotStarShaped(CavityError):
    """The cavity is not star-shaped around the new point (including the
    collinear-interior-boundary-edge degeneracy)."""


class PointEscaped(CavityError):
    """A point left the triangulation (or its bounding box)."""


class CavitySlotsExhausted(CavityError, ValueError):
    """Retriangulation needs more free slots than the caller provided.

    Also a ``ValueError`` because the pre-typed API raised one here and
    callers/tests reasonably pin that.
    """

    def __init__(self, message: str, *, requested: int | None = None,
                 available: int | None = None,
                 triangle: int | None = None) -> None:
        CavityError.__init__(self, message, triangle=triangle)
        self.requested = requested
        self.available = available
