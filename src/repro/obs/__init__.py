"""repro.obs — launch-level tracing & metrics for the virtual GPU.

The paper's evaluation (§8, Figs. 6–11) is about *where modeled time
goes*: kernel launches, host transfers, barrier crossings, worklist
occupancy.  This package records that structure as a span timeline on
a virtual clock, priced by ``CostModel.gpu_time`` so that it adds up
to the figure, and exports it three ways:

* Chrome ``trace_event`` JSON (:func:`chrome_trace`) for
  ``chrome://tracing`` / Perfetto,
* a flat metrics dict (:meth:`Tracer.metrics`) for assertions,
* ``BENCH_<figure>.json`` trajectories (:func:`write_bench`) appended by
  the benchmark harness.

Usage mirrors the sanitizer::

    from repro.obs import Tracer, write_chrome_trace

    tr = Tracer()
    refine_gpu(mesh, tracer=tr)          # every driver takes tracer=
    write_chrome_trace("trace.json", tr)
    print(tr.metrics()["modeled_us"])

See ``docs/OBSERVABILITY.md`` for the span hierarchy and how to read a
trace against the paper's Fig. 6/8 phase breakdowns.
"""

from .export import (BENCH_SCHEMA, chrome_trace, metrics_dict, read_bench,
                     write_bench, write_chrome_trace)
from .schema import TraceSchemaError, validate_chrome_trace
from .tracer import SpanEvent, Tracer

__all__ = [
    "Tracer", "SpanEvent",
    "chrome_trace", "write_chrome_trace", "metrics_dict",
    "write_bench", "read_bench", "BENCH_SCHEMA",
    "validate_chrome_trace", "TraceSchemaError",
]
