"""Fig. 6 — DMR runtime: GPU vs serial (Triangle) vs multicore (Galois)
across thread counts, for four input sizes.

The paper plots, per input, the multicore runtime as a function of
thread count with the serial and GPU times as horizontal lines.  This
benchmark reproduces the same series from modeled times: the Galois
emulation runs with 48 speculative threads and the model prices its
counted work at each thread count (lower counts conflict less, so the
modeled curve is, if anything, pessimistic for small thread counts).
"""

import pytest

from harness import RESULTS_DIR, emit, emit_bench, fmt_time, table
from paper_data import SCALE_NOTES
from repro.obs import Tracer, chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.vgpu import CostModel

THREADS = [1, 2, 4, 8, 16, 32, 48]


def test_fig6_dmr_runtime(dmr_runs, benchmark):
    cm = CostModel()
    lines = [SCALE_NOTES]
    bench_rows = []
    for paper_size, run in sorted(dmr_runs.items()):
        rows = []
        serial_t = cm.serial_time(run["serial"].counter)
        gpu_t = cm.gpu_time(run["gpu"].counter)
        for t in THREADS:
            rows.append((f"galois-{t}",
                         fmt_time(cm.cpu_time(run["galois"].counter, t))))
        rows.append(("serial (Triangle role)", fmt_time(serial_t)))
        rows.append(("GPU", fmt_time(gpu_t)))
        lines.append(f"input ~{paper_size}M paper-triangles "
                     f"(ours: {run['mesh_tris']} tris, {run['bad']} bad)")
        lines.append(table(["configuration", "modeled time"], rows))
        lines.append("")
        bench_rows.append({
            "input_mtris": paper_size,
            "mesh_tris": run["mesh_tris"],
            "bad": run["bad"],
            "gpu_s": gpu_t,
            "serial_s": serial_t,
            "galois48_s": cm.cpu_time(run["galois"].counter, 48),
        })
    emit("fig6_dmr_runtime", "\n".join(lines))

    # Traced re-run of the smallest input: export a Chrome trace of the
    # modeled launch timeline, validate it against the schema, and check
    # that it adds up to the GPU row of the same input.
    from conftest import mesh_for
    from repro.dmr import refine_gpu, DMRConfig
    smallest = min(dmr_runs)
    tracer = Tracer()
    refine_gpu(mesh_for(smallest), tracer=tracer)
    doc = chrome_trace(tracer)
    validate_chrome_trace(doc)
    gpu_s = cm.gpu_time(dmr_runs[smallest]["gpu"].counter)
    assert tracer.now_us == pytest.approx(gpu_s * 1e6, rel=1e-9)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_chrome_trace(RESULTS_DIR / "fig6_dmr_trace.json", tracer)
    bench_rows.append({"input_mtris": smallest, "traced": True,
                       **tracer.metrics()})
    emit_bench("fig6", bench_rows)

    # Measured quantity for pytest-benchmark: one GPU kernel iteration
    # on the smallest input (simulator throughput).
    mesh = mesh_for(smallest)

    benchmark.pedantic(
        lambda: refine_gpu(mesh.copy(), DMRConfig(max_rounds=1)),
        rounds=1, iterations=1)
