"""``repro.analysis`` — the kernel sanitizer subsystem.

Turns "races are simulated" into "races are detected, attributed, and
reported", in the spirit of ``cuda-memcheck --tool racecheck`` and
ThreadSanitizer, with three layers:

* :class:`RaceDetector` (:mod:`.race`) — a dynamic race detector fed by
  the instrumented :mod:`repro.vgpu` substrate: shadow read/write sets
  per kernel scope and barrier phase, a marking-protocol audit that
  catches the Section 7.3 two-phase bug (overlapping "exclusive"
  winners), out-of-bounds / use-after-free checking against
  :class:`repro.vgpu.memory.DeviceAllocator` extents, and a
  barrier-divergence checker for SPMD generator kernels.
* :mod:`.reports` — uniform :class:`Finding` records with
  thread/kernel/phase attribution.
* :mod:`.static` — the whole-program kernel effect analyzer
  (``python -m repro.analysis.static src/repro``): per-kernel effect
  summaries (reads/writes/atomics/allocator handles per barrier
  interval) verified against static race (STA201), barrier-divergence
  (STA202), allocator-lifetime (STA203), determinism (STA204) and
  manifest-drift (STA205) rules, plus the folded ``KRN101``–``KRN104``
  lint rules.

A detector reaches a run through the ``SANITIZER`` hook slot of
:mod:`repro.vgpu.instrument`; no driver takes it as an argument::

    from repro.analysis import RaceDetector
    from repro.dmr import refine_gpu

    det = RaceDetector()
    with det.activate():            # analyzes buffered accesses on exit
        refine_gpu(mesh)
    det.assert_clean()

See ``docs/SANITIZER.md`` for the full usage guide.
"""

from .race import RaceDetector
from .reports import (BARRIER_DIVERGENCE, DOUBLE_FREE, Finding,
                      OUT_OF_BOUNDS, READ_WRITE, USE_AFTER_FREE,
                      WRITE_WRITE, format_findings)

__all__ = [
    "RaceDetector", "Finding", "format_findings",
    "WRITE_WRITE", "READ_WRITE", "OUT_OF_BOUNDS", "USE_AFTER_FREE",
    "DOUBLE_FREE", "BARRIER_DIVERGENCE",
]
