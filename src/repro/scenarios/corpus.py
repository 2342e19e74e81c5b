"""The checked-in scenario corpus (``tests/scenarios/``).

One definition per regression surface the serving stack must keep
reproducing byte-for-byte: each of the six driver adapters, a mixed
SJF batch, kill-and-resume through the checkpoint store, device-fault
graceful degradation, an autotuned (``strategy="auto"``) job, and
mutation-stream (recorded update trace) variants for graphs, formulas,
meshes, and insertion batches.

``python -m repro.scenarios record-corpus tests/scenarios`` re-records
every definition; because recording is hermetic and the serialization
canonical, an unchanged system re-records byte-identical files — which
is itself asserted by the test suite.

Inputs are deliberately tiny: the corpus replays in CI on every push,
so each scenario is sized for seconds, not fidelity.  Scale lives in
the benchmarks.
"""

from __future__ import annotations

from pathlib import Path

from ..serve.faults import FaultPlan
from ..serve.jobs import JobSpec
from ..sessions import SessionSpec
from .format import save_scenario
from .record import record_scenario

__all__ = ["corpus_definitions", "record_corpus", "record_one",
           "DEFAULT_CORPUS_DIR"]

#: where the checked-in corpus lives, relative to the repo root
DEFAULT_CORPUS_DIR = Path("tests") / "scenarios"


def _spec(name, algorithm, params, *, strategy=None, seed=0, **kw) -> JobSpec:
    if isinstance(kw.get("fault"), dict):
        kw["fault"] = FaultPlan.from_dict(kw["fault"])
    return JobSpec(name=name, algorithm=algorithm, params=params,
                   strategy=strategy if strategy is not None else {},
                   seed=seed, **kw)


def _session_spec(name, algorithm, params, batches, *, seed=0,
                  **kw) -> JobSpec:
    """An incremental-session job (the :mod:`repro.sessions` envelope):
    replay re-streams the batches through the delta planners, so the
    golden digest also pins the delta-vs-full recompute equivalence."""
    return SessionSpec(name=name, algorithm=algorithm, params=params,
                       strategy={}, seed=seed, batches=batches,
                       **kw).to_job_spec()


def corpus_definitions() -> list[dict]:
    """Every corpus scenario as ``{name, description, policy, specs}``."""
    return [
        {
            "name": "dmr_fence",
            "description": "DMR refinement, 3-phase conflict marking with "
                           "the Xiao-Feng fence barrier.",
            "specs": [_spec("dmr-fence", "dmr", {"n_triangles": 120},
                            strategy={"conflict": "3phase",
                                      "barrier": "fence"}, seed=101)],
        },
        {
            "name": "insertion_point_stream",
            "description": "GPU Delaunay point insertion with a recorded "
                           "add/drop point-stream mutation.",
            "specs": [_spec(
                "insert-points", "insertion",
                {"n_triangles": 150, "n_points": 10,
                 "mutations": [
                     {"op": "add_points", "count": 6, "seed": 4},
                     {"op": "drop_points", "count": 3, "seed": 5}]},
                seed=103)],
        },
        {
            "name": "sp_cached",
            "description": "Survey propagation with the paper's GPU edge "
                           "cache enabled.",
            "specs": [_spec("sp-cached", "sp",
                            {"num_vars": 48, "k": 3, "ratio": 3.0},
                            strategy={"cached": True}, seed=107)],
        },
        {
            "name": "pta_pull",
            "description": "Andersen points-to analysis, pull variant, "
                           "paper defaults.",
            "specs": [_spec("pta-pull", "pta",
                            {"num_vars": 48, "num_constraints": 90},
                            seed=109)],
        },
        {
            "name": "mst_random",
            "description": "Boruvka MST contraction on a random graph.",
            "specs": [_spec("mst-random", "mst",
                            {"num_nodes": 120, "num_edges": 420},
                            seed=113)],
        },
        {
            "name": "engine_recolor",
            "description": "Generic morph engine: speculative graph "
                           "recoloring (the §10 workload).",
            "specs": [_spec("recolor", "engine",
                            {"num_nodes": 90, "num_edges": 260},
                            seed=127)],
        },
        {
            "name": "mixed_sjf",
            "description": "Mixed four-algorithm batch ordered "
                           "shortest-job-first by the static cost proxy.",
            "policy": "sjf",
            "specs": [
                _spec("mix-dmr", "dmr", {"n_triangles": 100}, seed=1),
                _spec("mix-sp", "sp",
                      {"num_vars": 40, "k": 3, "ratio": 3.0}, seed=2),
                _spec("mix-mst", "mst",
                      {"num_nodes": 100, "num_edges": 350}, seed=3),
                _spec("mix-recolor", "engine",
                      {"num_nodes": 60, "num_edges": 170}, seed=4),
            ],
        },
        {
            "name": "engine_kill_resume",
            "description": "Kill injected at round 3 of a checkpointed "
                           "engine job; the retry resumes from the last "
                           "durable round and must match an uninterrupted "
                           "run byte-for-byte.",
            "specs": [_spec(
                "kill-resume", "engine",
                {"num_nodes": 80, "num_edges": 240}, seed=131,
                checkpoint_every=2, retries=2, backoff_s=0.0,
                fault={"kind": "kill", "attempts": [1], "at_round": 3})],
        },
        {
            "name": "pta_degraded",
            "description": "Chunk-pool exhaustion injected under "
                           "resilience: the §7.1 fallback chain absorbs "
                           "the fault, the digest stays byte-identical, "
                           "and the degradation event log is golden.",
            "specs": [_spec(
                "pta-degraded", "pta",
                {"num_vars": 40, "num_constraints": 70}, seed=137,
                resilience=True,
                fault={"kind": "chunk_exhausted", "attempts": [1],
                       "at_event": [1]})],
        },
        {
            "name": "mst_auto_tuned",
            "description": "strategy='auto' against a pinned empty tuning "
                           "cache: the deterministic cold tune (fixed "
                           "budget and seed) resolves the strategy at "
                           "replay time.",
            "specs": [_spec("mst-auto", "mst",
                            {"num_nodes": 80, "num_edges": 240},
                            strategy="auto", seed=139)],
        },
        {
            "name": "mst_edge_stream",
            "description": "Recorded dynamic-connectivity-style edge "
                           "update stream (insert, delete, reweight) "
                           "replayed against Boruvka contraction.",
            "specs": [_spec(
                "mst-stream", "mst",
                {"num_nodes": 110, "num_edges": 380,
                 "mutations": [
                     {"op": "add_edges", "count": 40, "seed": 1},
                     {"op": "drop_edges", "count": 25, "seed": 2},
                     {"op": "reweight_edges", "count": 30, "seed": 3}]},
                seed=149)],
        },
        {
            "name": "sp_clause_stream",
            "description": "Clause insert/delete stream applied to the "
                           "formula before the SP pipeline runs.",
            "specs": [_spec(
                "sp-stream", "sp",
                {"num_vars": 40, "k": 3, "ratio": 3.0,
                 "mutations": [
                     {"op": "add_clauses", "count": 15, "seed": 5},
                     {"op": "drop_clauses", "count": 10, "seed": 6}]},
                seed=151)],
        },
        {
            "name": "mst_session_stream",
            "description": "Incremental MST session: a multi-batch edge "
                           "stream (adds, reweights, drops) served through "
                           "the repro.sessions delta planner; the golden "
                           "digest equals a cold solve of the fully "
                           "mutated graph.",
            "specs": [_session_spec(
                "mst-session", "mst",
                {"num_nodes": 140, "num_edges": 520},
                [[{"op": "add_edges", "count": 8, "seed": 11}],
                 [{"op": "reweight_edges", "count": 6, "seed": 12}],
                 [{"op": "drop_edges", "count": 5, "seed": 13}],
                 [{"op": "add_edges", "count": 4, "seed": 14},
                  {"op": "reweight_edges", "count": 4, "seed": 15}]],
                seed=163)],
        },
        {
            "name": "pta_session_stream",
            "description": "Incremental PTA session: constraint batches "
                           "grown monotonically; each batch warm-starts "
                           "the Andersen fixed point from the previous "
                           "solution instead of re-solving.",
            "specs": [_session_spec(
                "pta-session", "pta",
                {"num_vars": 60, "num_constraints": 140},
                [[{"op": "add_constraints", "count": 6, "seed": 21}],
                 [{"op": "add_constraints", "count": 5, "seed": 22}],
                 [{"op": "add_constraints", "count": 4, "seed": 23}]],
                seed=167)],
        },
        {
            "name": "dmr_insert_then_refine",
            "description": "Cavity mutation stream: seeded interior "
                           "points inserted through the §9 driver, then "
                           "the dirtied mesh is re-refined.",
            "specs": [_spec(
                "dmr-mutated", "dmr",
                {"n_triangles": 100,
                 "mutations": [
                     {"op": "insert_points", "count": 5, "seed": 9}]},
                seed=157)],
        },
    ]


def _to_spec(entry) -> JobSpec:
    return entry if isinstance(entry, JobSpec) else JobSpec.from_dict(entry)


def record_corpus(outdir: str | Path) -> list[Path]:
    """Record every corpus definition into ``outdir``; returns the paths."""
    outdir = Path(outdir)
    paths = []
    for d in corpus_definitions():
        specs = [_to_spec(s) for s in d["specs"]]
        scenario = record_scenario(
            d["name"], specs, description=d.get("description", ""),
            policy=d.get("policy", "fifo"))
        paths.append(save_scenario(outdir / f"{d['name']}.json", scenario))
    return paths


def record_one(name: str, outdir: str | Path) -> Path:
    """Record a single named corpus definition into ``outdir``."""
    for d in corpus_definitions():
        if d["name"] == name:
            specs = [_to_spec(s) for s in d["specs"]]
            scenario = record_scenario(
                name, specs, description=d.get("description", ""),
                policy=d.get("policy", "fifo"))
            return save_scenario(Path(outdir) / f"{name}.json", scenario)
    known = ", ".join(d["name"] for d in corpus_definitions())
    raise KeyError(f"unknown corpus scenario {name!r}; known: {known}")
