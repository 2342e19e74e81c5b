"""In-process workloads: DMR refinement, and the graph drivers through
the inline serve path.

Each op is one call into a public function, timed from outside; the
window is the time spent inside those calls, and throughput is ops per
second of it.  Each op's time is host-adjusted by the probe samples
taken on its core while it ran (see :mod:`.host`).  Inputs are built
from the workload seed before the window opens; outputs are checked
outside the timed calls.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter_ns

import numpy as np

from . import ROOT, probes
from .common import (Pass, Timed, counter_metrics, end_to_end,
                     own_peak_rss_mb, process_age_s, span_p50,
                     template_split, window_of)
from .host import Prober, current_cpu, probe_s
from .stats import INF, Metric, p50

#: the graph-solve job mix: SP runs one decimation phase at ratio 3.6
#: (none at 3.4)
GRAPH_TEMPLATES = (
    ("sp", {"num_vars": 300, "k": 3, "ratio": 3.6}),
    ("pta", {"num_vars": 300, "num_constraints": 1200}),
    ("mst", {"num_nodes": 20000, "num_edges": 80000}),
    ("engine", {"num_nodes": 200, "num_edges": 600}),
)
#: 1 in this many ops of each graph-solve template gets an oracle check
ORACLE_EVERY = 8


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in
            np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class _InProcess:
    """Set-up and the timed window shared by the in-process workloads.

    A subclass builds its inputs in ``__init__`` and defines
    :meth:`warm_up`, :meth:`call` (the timed public call of op ``i``),
    :meth:`kind` (op ``i``'s template) and :meth:`keep` (what to do with
    op ``i``'s result, outside the timed call).
    """

    name = ""

    def __init__(self, seed: int, *, exact_ops: int, setups: int) -> None:
        self.seed = seed
        #: ops always run, and the counter metrics are taken over
        self.exact_ops = exact_ops
        self.setups = setups
        self._setup_times: list[Timed] | None = None

    def warm_up(self) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def kind(self, i: int) -> str:
        raise NotImplementedError

    def keep(self, i: int, result) -> None:
        raise NotImplementedError

    def own_setup(self) -> Timed:
        """Warm up, ending this process's set-up; its time from process
        start, with the host probe taken as it ends."""
        self.warm_up()
        return Timed("setup", process_age_s(), probe_s())

    def set_up(self) -> list[Timed]:
        """This process's set-up, then ``setups - 1`` more, each in a
        fresh ``python -m benchmarks.e2e setup`` process (which sets up
        the default sizes)."""
        if self._setup_times is None:
            times = [self.own_setup()]
            for _ in range(self.setups - 1):
                out = subprocess.run(
                    [sys.executable, "-m", "benchmarks.e2e", "setup",
                     "--workload", self.name, "--seed", str(self.seed)],
                    cwd=ROOT, capture_output=True, text=True, timeout=300,
                    check=True)
                times.append(Timed(**json.loads(
                    out.stdout.strip().splitlines()[-1])))
            self._setup_times = times
        return self._setup_times

    def window(self, seconds: float, recorder) -> list[Timed]:
        """Run ops back to back until ``seconds`` of op time (and at
        least ``exact_ops`` ops) have passed.

        The ops run pinned to one core, with a prober on the same core
        that gives each op its probe (:meth:`.host.Prober.probe_around`).
        """
        cpu = current_cpu()
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        stretches: list[tuple[int, int]] = []
        total = 0.0
        try:
            with Prober([cpu]) as prober:
                while len(stretches) < self.exact_ops or total < seconds:
                    i = len(stretches)
                    with recorder.op(i) if recorder else nullcontext():
                        start = perf_counter_ns()
                        result = self.call(i)
                        end = perf_counter_ns()
                    stretches.append((start, end))
                    total += (end - start) / 1e9
                    self.keep(i, result)
        finally:
            os.sched_setaffinity(0, allowed)
        return [Timed(self.kind(i), (end - start) / 1e9,
                      prober.probe_around(start, end))
                for i, (start, end) in enumerate(stretches)]

    @staticmethod
    def window_timed(ops: list[Timed]) -> Timed:
        """The window: the time spent in the timed calls."""
        return window_of("window", sum(op.seconds for op in ops), ops)


# ------------------------------------------------------------------ #
# dmr-refine                                                          #
# ------------------------------------------------------------------ #

def check_dmr(result) -> str | None:
    """Why a :class:`~repro.dmr.DMRResult` is wrong, or ``None``."""
    if not result.converged:
        return "refinement did not converge"
    bad = int(result.mesh.bad_slots().size)
    if bad:
        return f"{bad} bad triangles left"
    try:
        result.mesh.validate()
    except AssertionError as exc:
        return f"invalid mesh: {exc}"
    return None


class DmrRefine(_InProcess):
    """``refine_gpu(mesh.copy())`` with the paper-default config."""

    name = "dmr-refine"

    def __init__(self, seed: int, *, n_meshes: int = 8,
                 n_triangles: int = 2000, exact_ops: int = 4,
                 warmup_triangles: int = 200, setups: int = 3) -> None:
        super().__init__(seed, exact_ops=exact_ops, setups=setups)
        import repro.dmr as dmr
        from repro.meshing.generate import random_mesh

        self._dmr = dmr
        seeds = _seeds(seed, n_meshes)
        self.meshes = [random_mesh(n_triangles, seed=s) for s in seeds]
        self.warmup = random_mesh(warmup_triangles, seed=seeds[0])
        self._verdicts: list = []
        self._exact: list = []

    def warm_up(self) -> None:
        if self.warmup is not None:
            self._dmr.refine_gpu(self.warmup.copy(), self._dmr.DMRConfig())
            self.warmup = None

    def call(self, i: int):
        return self._dmr.refine_gpu(self.meshes[i % len(self.meshes)].copy(),
                                    self._dmr.DMRConfig())

    def kind(self, i: int) -> str:
        return "dmr"

    def keep(self, i: int, result) -> None:
        # Checked between timed calls, so no refined mesh is kept and
        # peak memory does not grow with the op count.
        self._verdicts.append(check_dmr(result))
        if len(self._exact) < self.exact_ops:
            self._exact.append((result.counter, result.rounds,
                                result.points_added))

    def measure(self, seconds: float, recorder=None) -> Pass:
        setups = self.set_up()
        self._verdicts, self._exact = [], []
        patches = probes.install_dmr(recorder) if recorder else None
        try:
            ops = self.window(seconds, recorder)
        finally:
            if patches is not None:
                patches.restore()

        verdicts, exact = self._verdicts, self._exact
        failures = [f"op {i}: {v}" for i, v in enumerate(verdicts) if v]
        scored = [op if v is None else Timed(op.kind, INF, op.probe)
                  for op, v in zip(ops, verdicts)]
        metrics = end_to_end(scored, completed=len(ops) - len(failures),
                             window=self.window_timed(ops), setups=setups,
                             rss=own_peak_rss_mb())
        metrics.update(counter_metrics(c for c, _, _ in exact))
        metrics["dmr.rounds_p50"] = Metric(
            _median([r for _, r, _ in exact]), "count", len(exact))
        metrics["dmr.points_added_p50"] = Metric(
            _median([p for _, _, p in exact]), "count", len(exact))
        return Pass(metrics, len(ops), failures,
                    recorder.spans() if recorder else None)

    @staticmethod
    def layer_metrics(spans, ops) -> dict[str, Metric]:
        n = len(ops)
        out = {f"{layer}.self_s": Metric(_median(
                   [b.layer_self_ns.get(layer, 0) / 1e9
                    for b in ops.values()]), "s", n)
               for layer in ("dmr", "meshing", "core.conflict", "vgpu")}
        out["meshing.calls"] = Metric(_median(
            [b.layer_calls.get("meshing", 0) for b in ops.values()]),
            "count", n)
        return out


# ------------------------------------------------------------------ #
# graph-solve                                                         #
# ------------------------------------------------------------------ #

def check_graph(spec, record, *, oracle: bool) -> str | None:
    """Why a serve :class:`~repro.serve.pool.JobRecord` is wrong, or
    ``None``.  With ``oracle``, also check the result against an
    independent solver (MST, PTA) or the input (SP, engine)."""
    if not record.ok or record.result is None:
        return f"job failed: {record.failures}"
    if not oracle:
        return None
    summary, digest = record.result.summary, record.result.digest
    params, seed = spec.params, spec.seed
    if spec.algorithm == "mst":
        from repro.graphgen import random_graph
        from repro.mst.kruskal import kruskal

        want = kruskal(*random_graph(int(params["num_nodes"]),
                                     int(params["num_edges"]),
                                     seed=seed)).total_weight
        if summary["total_weight"] != want:
            return (f"MST weight {summary['total_weight']} != Kruskal "
                    f"{want}")
    elif spec.algorithm == "pta":
        from repro.pta.bitset import BitMatrix
        from repro.pta.constraints import generate_constraints
        from repro.pta.sequential import andersen_serial
        from repro.serve.jobs import digest_arrays

        cons = generate_constraints(int(params["num_vars"]),
                                    int(params["num_constraints"]),
                                    seed=seed)
        facts = andersen_serial(cons).pts
        pts = BitMatrix(cons.num_vars, cons.num_vars)
        pts.add([v for v, s in enumerate(facts) for _ in s],
                [m for s in facts for m in sorted(s)])
        if digest_arrays((pts.bits, pts.counts()), summary) != digest:
            return "PTA facts differ from andersen_serial"
    elif spec.algorithm == "engine":
        if summary.get("proper") is not True:
            return "engine coloring is not proper"
    elif spec.algorithm == "sp":
        from repro.core.counters import OpCounter
        from repro.satsp.formula import random_ksat
        from repro.serve.jobs import JobContext, digest_arrays, get_adapter

        arrays, again = get_adapter("sp")(
            params, spec.strategy, seed, JobContext(counter=OpCounter()))
        if digest_arrays(arrays, again) != digest:
            return "SP rerun digest differs from the job's"
        cnf = random_ksat(int(params["num_vars"]), int(params["k"]),
                          ratio=float(params["ratio"]), seed=seed)
        assignment = np.asarray(arrays[0], dtype=bool)
        if assignment.size != cnf.num_vars or not cnf.check(assignment):
            return "SP assignment does not satisfy the formula"
    return None


class GraphSolve(_InProcess):
    """``repro.serve.pool.run_job`` over seeded specs of four drivers."""

    name = "graph-solve"

    def __init__(self, seed: int, *, templates=GRAPH_TEMPLATES,
                 n_specs: int = 360, exact_ops: int = 16,
                 setups: int = 3) -> None:
        super().__init__(seed, exact_ops=exact_ops, setups=setups)
        from repro.serve import pool
        from repro.serve.jobs import JobSpec

        self._pool = pool
        seeds = _seeds(seed, n_specs + len(templates))
        k = len(templates)
        self.specs = [JobSpec(name=f"{templates[i % k][0]}-{i}",
                              algorithm=templates[i % k][0],
                              params=dict(templates[i % k][1]),
                              seed=seeds[i]) for i in range(n_specs)]
        self.warmup = [JobSpec(name=f"warm-{algo}", algorithm=algo,
                               params=dict(params), seed=seeds[n_specs + j])
                       for j, (algo, params) in enumerate(templates)]
        self.templates = k
        self._records: list = []

    def _oracle(self, i: int) -> bool:
        return (i // self.templates) % ORACLE_EVERY == 0

    def warm_up(self) -> None:
        for spec in self.warmup:
            self._pool.run_job(spec)
        self.warmup = []

    def spec(self, i: int):
        return self.specs[i % len(self.specs)]

    def call(self, i: int):
        # Looked up at call time, so a traced pass's wrapper is used.
        return self._pool.run_job(self.spec(i))

    def kind(self, i: int) -> str:
        return self.spec(i).algorithm

    def keep(self, i: int, result) -> None:
        self._records.append(result)

    def measure(self, seconds: float, recorder=None) -> Pass:
        setups = self.set_up()
        self._records = []
        patches = probes.install_serve(recorder) if recorder else None
        try:
            ops = self.window(seconds, recorder)
        finally:
            if patches is not None:
                patches.restore()

        records = self._records
        specs = [self.spec(i) for i in range(len(records))]
        verdicts = [check_graph(s, r, oracle=self._oracle(i))
                    for i, (s, r) in enumerate(zip(specs, records))]
        failures = [f"op {i} ({s.name}): {v}"
                    for i, (s, v) in enumerate(zip(specs, verdicts)) if v]
        scored = [op if v is None else Timed(op.kind, INF, op.probe)
                  for op, v in zip(ops, verdicts)]
        metrics = end_to_end(scored, completed=len(ops) - len(failures),
                             window=self.window_timed(ops), setups=setups,
                             rss=own_peak_rss_mb())
        metrics["serve.service_p50_s"] = p50(
            [r.service_s for r in records if r.ok])
        metrics.update(template_split(scored))
        metrics.update(counter_metrics(
            r.result.counter for r in records[: self.exact_ops]
            if r.result is not None))
        return Pass(metrics, len(records), failures,
                    recorder.spans() if recorder else None)

    @staticmethod
    def layer_metrics(spans, ops) -> dict[str, Metric]:
        return span_p50(spans, "serve.digest_p50_s", "serve.digest")
