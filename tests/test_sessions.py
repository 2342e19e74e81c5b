"""The :mod:`repro.sessions` differential gate.

The contract under test is the one the subsystem is built around:
after **every** applied batch, a session's arrays-only digest is
byte-identical to a cold full recompute on the equivalently mutated
input (the serve adapter run with all mutations concatenated).  The
gate drives that check across every algorithm with a planner, ≥3 seeds
and ≥3 batches each, plus the surrounding machinery: the
threshold escape hatch, empty-batch no-ops, the batch-index and
checkpoint-cadence rules, checkpoint/resume (inline and kill-resume
through the pool at several cadences), the serve integration, the
mutation-log compaction guard, observability gauges, the
delta-vs-full modeled-cost win on MST and PTA, the MST planner's host
finish against Kruskal, a 30-batch MST stream, and the CLI's exit
codes and checkpoint writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.counters import OpCounter
from repro.core.engine import EngineCheckpoint
from repro.errors import SessionStateError
from repro.mst import kruskal
from repro.obs import Tracer, chrome_trace, validate_chrome_trace
from repro.serve import CheckpointStore, Scheduler
from repro.serve.jobs import (JobContext, JobSpec, digest_arrays,
                             estimate_cost, get_adapter)
from repro.sessions import (DEFAULT_FULL_THRESHOLD, MutationLog, Session,
                            SessionSpec, planned_algorithms, planner_for)
from repro.sessions.__main__ import _load_specs
from repro.sessions.__main__ import main as sessions_cli
from repro.sessions.planners.mst import MstPlanner, forest_components
from repro.sessions.serve import run_session_job
from repro.vgpu.costmodel import CostModel
from repro.vgpu.sync import BARRIERS

pytestmark = pytest.mark.session


# --------------------------------------------------------------------- #
# Small streams per algorithm: ≥3 batches, mixed op vocabulary, params
# the adapter reads, and every batch changes the session digest
# --------------------------------------------------------------------- #

STREAMS = {
    "mst": ({"num_nodes": 160, "num_edges": 640},
            [[{"op": "add_edges", "count": 6, "seed": 1}],
             [{"op": "reweight_edges", "count": 5, "seed": 2}],
             [{"op": "drop_edges", "count": 4, "seed": 3}]]),
    "pta": ({"num_vars": 150, "num_constraints": 200},
            [[{"op": "add_constraints", "count": 6, "seed": 1}],
             [{"op": "add_constraints", "count": 6, "seed": 2}],
             [{"op": "drop_constraints", "count": 5, "seed": 3}]]),
    "sp": ({"num_vars": 50, "ratio": 3.4},
           [[{"op": "add_clauses", "count": 5, "seed": 1}],
            [{"op": "drop_clauses", "count": 5, "seed": 2}],
            [{"op": "add_clauses", "count": 4, "seed": 3}]]),
    "dmr": ({"n_triangles": 100},
            [[{"op": "insert_points", "count": 3, "seed": 1}],
             [{"op": "insert_points", "count": 2, "seed": 2}],
             [{"op": "insert_points", "count": 2, "seed": 3}]]),
    "insertion": ({"n_triangles": 120, "n_points": 70},
                  [[{"op": "add_points", "count": 4, "seed": 1}],
                   [{"op": "drop_points", "count": 3, "seed": 2}],
                   [{"op": "add_points", "count": 2, "seed": 3}]]),
    "engine": ({"num_nodes": 70, "num_edges": 210},
               [[{"op": "add_edges", "count": 5, "seed": 1}],
                [{"op": "add_edges", "count": 4, "seed": 2}],
                [{"op": "drop_edges", "count": 3, "seed": 3}]]),
}


def _spec(algorithm, seed, *, name=None, params=None, batches=None, **kw):
    base_params, base_batches = STREAMS[algorithm]
    return SessionSpec(
        name=name or f"{algorithm}-s{seed}", algorithm=algorithm,
        params=params if params is not None else base_params,
        strategy={}, seed=seed,
        batches=batches if batches is not None else base_batches, **kw)


def test_planner_registry_covers_all_algorithms():
    assert planned_algorithms() == sorted(STREAMS)
    for algo in planned_algorithms():
        assert planner_for(algo).algorithm == algo


# --------------------------------------------------------------------- #
# The differential gate
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm", sorted(STREAMS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_differential_gate(algorithm, seed):
    """Every batch, every seed: session digest == cold full recompute,
    and every batch changes the digest (so the check is not vacuous)."""
    session = Session.open(_spec(algorithm, seed))
    before = session.digest()
    for ops in session.spec.batches:
        result = session.apply_batch(ops)
        assert result.digest != before, (
            f"{algorithm} seed={seed} batch={result.batch} left the "
            f"digest unchanged")
        before = result.digest
        matches, cold = session.verify_full()
        assert matches, (
            f"{algorithm} seed={seed} batch={result.batch} "
            f"mode={result.mode}: session {result.digest} != cold {cold}")


#: open params (with initial mutations) and batches per algorithm; at
#: ``full_threshold=0`` every batch that changes the input recomputes
#: fully, drops and add-then-drop batches included (DMR only opens cold:
#: its batches always stage)
COLD_STREAMS = {
    "mst": ({"num_nodes": 120, "num_edges": 480},
            [{"op": "add_edges", "count": 5, "seed": 1}],
            [[{"op": "add_edges", "count": 4, "seed": 2}],
             [{"op": "drop_edges", "count": 6, "seed": 3}],
             [{"op": "reweight_edges", "count": 5, "seed": 4},
              {"op": "drop_edges", "count": 2, "seed": 5}]]),
    "pta": ({"num_vars": 120, "num_constraints": 200},
            [{"op": "add_constraints", "count": 6, "seed": 1}],
            [[{"op": "add_constraints", "count": 5, "seed": 2}],
             [{"op": "drop_constraints", "count": 4, "seed": 3}],
             [{"op": "add_constraints", "count": 6, "seed": 4},
              {"op": "drop_constraints", "count": 3, "seed": 5}]]),
    "sp": ({"num_vars": 50, "ratio": 3.0},
           [{"op": "add_clauses", "count": 3, "seed": 1}],
           [[{"op": "add_clauses", "count": 4, "seed": 2}],
            [{"op": "drop_clauses", "count": 3, "seed": 3}],
            [{"op": "add_clauses", "count": 3, "seed": 4},
             {"op": "drop_clauses", "count": 2, "seed": 5}]]),
    "dmr": ({"n_triangles": 150},
            [{"op": "insert_points", "count": 3, "seed": 1}],
            [[{"op": "insert_points", "count": 2, "seed": 2}]]),
    "insertion": ({"n_triangles": 120, "n_points": 8},
                  [{"op": "add_points", "count": 2, "seed": 1}],
                  [[{"op": "add_points", "count": 3, "seed": 2}],
                   [{"op": "drop_points", "count": 2, "seed": 3}],
                   [{"op": "add_points", "count": 1, "seed": 4},
                    {"op": "drop_points", "count": 1, "seed": 5}]]),
    "engine": ({"num_nodes": 50, "num_edges": 150},
               [{"op": "add_edges", "count": 3, "seed": 1}],
               [[{"op": "add_edges", "count": 4, "seed": 2}],
                [{"op": "drop_edges", "count": 3, "seed": 3}],
                [{"op": "reweight_edges", "count": 3, "seed": 4},
                 {"op": "drop_edges", "count": 2, "seed": 5}]]),
}


def _cold(algorithm, params, seed):
    """Digest, summary and modeled cost of one cold adapter run."""
    ctx = JobContext(counter=OpCounter())
    arrays, summary = get_adapter(algorithm)(params, {}, seed, ctx)
    return digest_arrays(arrays), summary, CostModel().gpu_time(ctx.counter)


@pytest.mark.parametrize("algorithm", sorted(COLD_STREAMS))
def test_open_and_full_recompute_equal_the_cold_adapter(algorithm):
    """A session's open and every full batch give the cold adapter's
    digest, summary and modeled cost on the same mutations."""
    params, mutations, batches = COLD_STREAMS[algorithm]
    spec = _spec(algorithm, 4, params={**params, "mutations": mutations},
                 batches=batches, full_threshold=0.0)
    session = Session.open(spec)
    assert (session.digest(), session.summary, session.full_cost_s) == \
        _cold(algorithm, spec.params, 4)
    full = 0
    for ops in batches:
        result = session.apply_batch(ops)
        mutations = mutations + ops
        if result.mode == "full":
            full += 1
            assert (result.digest, result.summary, result.cost_s) == \
                _cold(algorithm, {**params, "mutations": mutations}, 4)
    assert full == (0 if algorithm == "dmr" else len(batches))


def test_sequential_composition_equals_concatenation():
    """Applying B1;B2;B3 matches a cold run with all ops concatenated —
    the property that makes a long-lived session trustworthy."""
    session = Session.open(_spec("mst", 5))
    for ops in session.spec.batches:
        session.apply_batch(ops)
    assert session.digest() == session.cold_digest()
    assert session.applied_batches == 3


def test_mst_delta_mode_actually_taken():
    """Small MST batches must go down the delta path, not fall back."""
    session = Session.open(_spec("mst", 2))
    result = session.apply_batch([{"op": "add_edges", "count": 4,
                                   "seed": 9}])
    assert result.mode == "delta"
    assert 0 < result.dirty_fraction <= DEFAULT_FULL_THRESHOLD
    assert result.summary["mst_edges"] == session.summary["mst_edges"]


def test_pta_drop_falls_back_to_full():
    """drop_constraints retracts facts; the monotone warm-start must
    refuse it and recompute."""
    session = Session.open(_spec("pta", 1))
    result = session.apply_batch([{"op": "drop_constraints", "count": 3,
                                   "seed": 4}])
    assert result.mode == "full"
    assert "non-monotone" in result.note
    assert session.verify_full()[0]


def test_threshold_escape_hatch():
    """A batch dirtying more than ``full_threshold`` of the input must
    take the full path (and still match cold)."""
    spec = _spec("mst", 3, batches=[[{"op": "reweight_edges",
                                      "count": 600, "seed": 8}]],
                 full_threshold=0.05)
    session = Session.open(spec)
    result = session.apply_batch(spec.batches[0])
    assert result.mode == "full"
    assert "threshold" in result.note
    assert session.verify_full()[0]


def test_empty_batch_is_cached_noop():
    session = Session.open(_spec("mst", 4))
    before = session.digest()
    result = session.apply_batch([])
    assert result.mode == "cached"
    assert result.dirty == 0
    assert result.cost_s == 0.0
    assert session.digest() == before
    assert session.applied_batches == 1   # still logged


def test_mst_forest_components_labels():
    comp = forest_components(6, np.array([0, 1, 3]), np.array([1, 2, 4]))
    assert comp[0] == comp[1] == comp[2]
    assert comp[3] == comp[4]
    assert comp[0] != comp[3] and comp[5] not in (comp[0], comp[3])


def _union_find_labels(num_nodes, u, v):
    """Reference: the per-edge Python union-find ``forest_components``
    ran before the vectorized Boruvka rounds replaced it."""
    parent = np.arange(num_nodes, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return np.array([find(i) for i in range(num_nodes)], dtype=np.int64)


def _partition(labels):
    """Each node's smallest same-label node: equal iff same partition."""
    first = {}
    return [first.setdefault(int(lab), i) for i, lab in enumerate(labels)]


_NO_EDGES = np.zeros(0, dtype=np.int64)


@st.composite
def _edge_lists(draw):
    """Small multigraphs: isolated nodes, disconnected pieces, the empty
    list, and weights from a tiny range so ties must break by id."""
    n = draw(st.integers(1, 16))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.integers(1, 3)), max_size=40))
    cols = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    keep = np.array(draw(st.lists(st.booleans(), min_size=len(edges),
                                  max_size=len(edges))), dtype=bool)
    return n, cols[0], cols[1], cols[2], keep


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_edge_lists())
@example((1, _NO_EDGES, _NO_EDGES, _NO_EDGES, np.zeros(0, dtype=bool)))
@example((7, np.array([0, 0, 1, 4, 4]), np.array([1, 2, 2, 5, 5]),
          np.array([2, 2, 2, 1, 1]), np.array([1, 0, 1, 1, 1], bool)))
def test_mst_sparse_finish_matches_kruskal(graph):
    """The delta finish picks Kruskal's forest, over the whole edge list
    and over an ascending candidate sublist (positions keyed in place of
    ids), ties broken by edge id."""
    n, lo, hi, w, keep = graph
    planner = MstPlanner({}, {}, seed=0)
    planner.n, planner.lo, planner.hi, planner.w = n, lo, hi, w
    everything = np.arange(lo.size, dtype=np.int64)
    got = planner._sparse_finish(everything, OpCounter())
    assert got.tolist() == kruskal(n, lo, hi, w).mst_edges.tolist()

    cand = np.flatnonzero(keep)
    want = cand[kruskal(n, lo[cand], hi[cand], w[cand]).mst_edges]
    got = planner._sparse_finish(cand, OpCounter())
    assert got.dtype == np.int64 and got.tolist() == want.tolist()

    assert (_partition(forest_components(n, lo, hi))
            == _partition(_union_find_labels(n, lo, hi)))


#: The e2e gateway-sessions MST rotation (add 40 / reweight 40 / drop 20
#: on 20 000 nodes / 80 000 edges), scaled down tenfold.
LONG_ROTATION = (("add_edges", 4), ("reweight_edges", 4), ("drop_edges", 2))


@pytest.mark.parametrize("seed", [1, 2])
def test_mst_long_stream_stays_delta(seed):
    """Thirty batches, so forest splits from drops and reweights compound
    across batches: every one stays on the delta path and still matches
    a cold recompute."""
    batches = [[{"op": op, "count": count, "seed": 1000 * seed + k}]
               for k, (op, count) in enumerate(LONG_ROTATION * 10, start=1)]
    spec = _spec("mst", seed, params={"num_nodes": 2000, "num_edges": 8000},
                 batches=batches)
    session = Session.open(spec)
    for k, ops in enumerate(spec.batches, start=1):
        result = session.apply_batch(ops)
        assert result.mode == "delta", (k, result.note)
        if k % 10 == 0:
            matches, cold = session.verify_full()
            assert matches, f"batch {k}: {result.digest} != cold {cold}"


# --------------------------------------------------------------------- #
# Modeled-cost win (the point of the subsystem)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm,params,batch", [
    ("mst", {"num_nodes": 4000, "num_edges": 32000},
     [{"op": "add_edges", "count": 30, "seed": 11},
      {"op": "reweight_edges", "count": 30, "seed": 12}]),
    ("pta", {"num_vars": 1500, "num_constraints": 6000},
     [{"op": "add_constraints", "count": 12, "seed": 21}]),
])
def test_small_delta_cost_win(algorithm, params, batch):
    """≤1% mutated input ⇒ ≥5x modeled-cost win over full recompute."""
    spec = _spec(algorithm, 1, name=f"{algorithm}-bench", params=params,
                 batches=[batch, batch])
    session = Session.open(spec)
    for ops in spec.batches:
        result = session.apply_batch(ops)
        assert result.mode == "delta"
        assert result.dirty_fraction <= DEFAULT_FULL_THRESHOLD
        assert result.cost_ratio <= 0.2, (
            f"{algorithm}: delta cost ratio {result.cost_ratio:.3f} "
            f"misses the 5x win")
    assert session.digest() == session.cold_digest()


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #

def test_recorded_answers_applied_batches_and_refuses_gaps():
    session = Session.open(_spec("mst", 17))
    assert session.recorded(1) is None
    first = session.apply_batch(session.spec.batches[0])
    assert session.recorded(1) is first
    assert session.recorded(2) is None
    for index in (0, 3):
        with pytest.raises(SessionStateError,
                           match=f"expected batch 2, got {index}"):
            session.recorded(index)
    assert session.applied_batches == 1     # asking applied nothing


@pytest.mark.parametrize("every,due", [(0, []), (1, [1, 2, 3]), (2, [2]),
                                       (3, [3])])
def test_checkpoint_due_follows_the_spec_cadence(every, due):
    session = Session.open(_spec("mst", 18, checkpoint_every=every))
    assert not session.checkpoint_due
    got = []
    for ops in session.spec.batches:
        session.apply_batch(ops)
        if session.checkpoint_due:
            got.append(session.applied_batches)
    assert got == due


def test_checkpoint_resume_byte_identity(tmp_path):
    """Save mid-stream, resume, finish: digest and per-batch history
    equal an uninterrupted session's."""
    spec = _spec("mst", 6, checkpoint_every=1)
    straight = Session.open(spec)
    for ops in spec.batches:
        straight.apply_batch(ops)

    store = CheckpointStore(tmp_path)
    session = Session.open(spec)
    session.apply_batch(spec.batches[0])
    session.apply_batch(spec.batches[1])
    session.save(store)

    resumed = Session.open(spec, store=store)
    assert resumed.applied_batches == 2
    assert len(resumed.results) == 2
    resumed.apply_batch(spec.batches[2])
    assert resumed.digest() == straight.digest()
    assert ([r.digest for r in resumed.results]
            == [r.digest for r in straight.results])
    assert resumed.digest() == resumed.cold_digest()


def test_resume_refuses_mismatched_spec(tmp_path):
    store = CheckpointStore(tmp_path)
    session = Session.open(_spec("mst", 7))
    session.apply_batch(session.spec.batches[0])
    session.save(store)

    other = _spec("mst", 8, name=session.spec.name)   # same name, new seed
    with pytest.raises(SessionStateError, match="different"):
        Session.open(other, store=store)


def test_resume_refuses_engine_round_checkpoint():
    spec = _spec("mst", 9)
    foreign = EngineCheckpoint(round=3, stats=None, counter=None,
                               rng_state={}, payload={"kind": "other"})
    with pytest.raises(SessionStateError, match="not a session"):
        Session.resume(spec, foreign)


def test_store_versions_are_pruned(tmp_path):
    """Session saves flow through keep-latest-N version pruning."""
    store = CheckpointStore(tmp_path, keep_latest=2)
    spec = _spec("mst", 10, batches=[
        [{"op": "add_edges", "count": 2, "seed": s}] for s in range(4)])
    session = Session.open(spec)
    for ops in spec.batches:
        session.apply_batch(ops)
        session.save(store)
    assert store.versions(spec.name) == [3, 4]
    resumed = Session.open(spec, store=store)
    assert resumed.applied_batches == 4


def test_open_walks_back_past_a_torn_newest_checkpoint(tmp_path):
    """A torn newest version is quarantined, and the session resumes
    from the newest version that still reads instead of going cold."""
    spec = _spec("mst", 15)
    store = CheckpointStore(tmp_path)
    session = Session.open(spec)
    for ops in spec.batches:
        session.apply_batch(ops)
        session.save(store)
    assert store.versions(spec.name) == [1, 2, 3]
    newest = store.path(spec.name, 3)
    newest.write_bytes(newest.read_bytes()[:64])
    resumed = Session.open(spec, store=store)
    assert resumed.applied_batches == 2
    assert list(tmp_path.glob("*.ckpt.corrupt"))


# --------------------------------------------------------------------- #
# Mutation log
# --------------------------------------------------------------------- #

def test_compaction_bounds_log_and_guards_cold_check():
    spec = _spec("mst", 11, compact_after=4, batches=[
        [{"op": "add_edges", "count": 2, "seed": s},
         {"op": "reweight_edges", "count": 2, "seed": s + 50}]
        for s in range(5)])
    session = Session.open(spec)
    for ops in spec.batches:
        session.apply_batch(ops)
    log = session.log
    assert log.compacted_batches > 0
    assert sum(len(e["ops"]) for e in log.entries) <= spec.compact_after + 2
    # The cold differential needs the full history; a compacted session
    # must say so rather than silently verifying the wrong input.
    with pytest.raises(SessionStateError, match="compact"):
        session.cold_digest()


def test_mutation_log_roundtrip():
    log = MutationLog(compact_after=8)
    log.append(1, [{"op": "add_edges", "count": 1, "seed": 0}], "delta")
    log.append(2, [], "cached")
    clone = MutationLog.from_dict(log.to_dict())
    assert clone.entries == log.entries
    assert clone.compact_after == 8


# --------------------------------------------------------------------- #
# Serve integration
# --------------------------------------------------------------------- #

def test_session_spec_job_roundtrip():
    spec = _spec("mst", 12, checkpoint_every=2)
    job = spec.to_job_spec()
    assert job.params["session"]["batches"] == spec.batches
    assert job.checkpoint_every == 2
    back = SessionSpec.from_job_spec(job)
    assert back == spec
    # Session jobs must price above their static one-shot equivalent.
    one_shot = _spec("mst", 12, batches=[]).to_job_spec()
    assert estimate_cost(job) > estimate_cost(one_shot)


def test_serve_path_matches_inline_session(tmp_path):
    spec = _spec("mst", 13, checkpoint_every=1)
    inline = Session.open(spec)
    for ops in spec.batches:
        inline.apply_batch(ops)

    report = Scheduler(checkpoint_dir=str(tmp_path)).run_batch(
        [spec.to_job_spec()])
    record = report.records[0]
    assert record.ok
    sess = record.result.summary["session"]
    assert sess["batches"] == 3
    assert sess["modes"] == [r.mode for r in inline.results]
    # The serve digest covers arrays + summary; its arrays come from the
    # same planner state, so the inline cold check still vouches for it.
    assert inline.digest() == inline.cold_digest()


def test_round_hook_and_saves_skip_resumed_batches():
    """Resumed past batch 2, the serve adapter fires the round hook and
    saves only for the batch it applies."""
    spec = _spec("mst", 19, checkpoint_every=1)
    session = Session.open(spec)
    for ops in spec.batches[:2]:
        session.apply_batch(ops)
    rounds, saved = [], []
    ctx = JobContext(counter=session.counter.copy(),
                     round_hook=rounds.append, checkpoint_every=1,
                     save_checkpoint=saved.append,
                     resume_state=session.checkpoint())
    run_session_job(spec.to_job_spec(), ctx)
    assert rounds == [3]
    assert [ck.round for ck in saved] == [3]


@pytest.mark.parametrize("every", [1, 2, 3])
def test_kill_resume_through_pool(tmp_path, every):
    """A session job killed before batch 3 resumes from the newest
    checkpoint its cadence wrote and lands on the same digest as an
    undisturbed run."""
    spec = _spec("mst", 14, checkpoint_every=every, retries=2)
    clean = Scheduler().run_batch([spec.to_job_spec()]).records[0]
    assert clean.ok

    job_dict = spec.to_job_spec().to_dict()
    job_dict["fault"] = {"kind": "kill", "attempts": [1], "at_round": 3}
    job = JobSpec.from_dict(job_dict)
    report = Scheduler(checkpoint_dir=str(tmp_path)).run_batch([job])
    record = report.records[0]
    assert record.ok
    assert record.attempts == 2
    assert record.resumed_round == (3 - 1) // every * every
    assert record.result.digest == clean.result.digest


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

EXAMPLE_STREAM = (Path(__file__).resolve().parent.parent / "examples"
                  / "session_stream.json")


def test_cli_example_stream_verifies():
    """The example verifies against cold recomputes, drives every
    planner, and every batch changes its session's digest, so the
    differential it gates can catch a planner that ignores a batch."""
    assert sessions_cli(["run", str(EXAMPLE_STREAM), "--verify-full"]) == 0
    specs = _load_specs(str(EXAMPLE_STREAM))
    assert sorted({s.algorithm for s in specs}) == planned_algorithms()
    for spec in specs:
        session = Session.open(spec)
        digests = [session.digest()]
        digests += [session.apply_batch(ops).digest for ops in spec.batches]
        assert all(a != b for a, b in zip(digests, digests[1:])), (
            spec.name, [d[:12] for d in digests])


def _cli_saves(monkeypatch, argv) -> list:
    """``(job name, version)`` of every checkpoint one CLI run saves."""
    saved = []
    real = CheckpointStore.save

    def save(self, job_name, state, version=None):
        saved.append((job_name, version))
        return real(self, job_name, state, version=version)

    with monkeypatch.context() as m:
        m.setattr(CheckpointStore, "save", save)
        assert sessions_cli(argv) == 0
    return saved


@pytest.mark.parametrize("stream,want", [
    (EXAMPLE_STREAM, [("mst-incremental", 2), ("mst-incremental", 4)]),
    (None, [("mst-s16", 2), ("mst-s16", 3)]),
], ids=["example", "three-batches-every-2"])
def test_cli_saves_each_checkpoint_version_once(tmp_path, monkeypatch,
                                                capsys, stream, want):
    """Saves land every ``checkpoint_every`` batches plus the stream's
    last, once each; sessions at cadence 0 save nothing, and a rerun
    that resumed past every batch saves nothing either."""
    if stream is None:
        stream = tmp_path / "three.json"
        stream.write_text(json.dumps(
            _spec("mst", 16, checkpoint_every=2).to_dict()))
    argv = ["run", str(stream), "--checkpoint-dir", str(tmp_path / "ckpt")]
    assert _cli_saves(monkeypatch, argv) == want
    capsys.readouterr()
    assert _cli_saves(monkeypatch, argv) == []
    assert f"(resumed past {want[-1][1]})" in capsys.readouterr().out


@pytest.mark.parametrize("content", ['["x"]', "5", None],
                         ids=["entry-not-object", "scalar", "missing"])
def test_cli_unreadable_input_exits_2(tmp_path, capsys, content):
    """Malformed input is a usage error (2), not a failed batch (1)."""
    path = tmp_path / "sessions.json"
    if content is not None:
        path.write_text(content)
    assert sessions_cli(["run", str(path)]) == 2
    assert "error: cannot load" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm", sorted(STREAMS))
def test_traced_stream_adds_up_to_batch_costs(algorithm):
    """A traced session's clock equals its open cost plus every batch's
    ``cost_s``; no event runs backwards and the trace exports valid."""
    tracer = Tracer()
    spec = _spec(algorithm, 15)
    with tracer.activate():
        session = Session.open(spec)
        open_cost = session.full_cost_s
        costs = [session.apply_batch(ops).cost_s for ops in spec.batches]
    assert tracer.now_us == pytest.approx(1e6 * (open_cost + sum(costs)),
                                          rel=1e-9)
    assert all(e.dur >= 0 for e in tracer.events)
    validate_chrome_trace(chrome_trace(tracer))


@pytest.mark.parametrize("barrier", sorted(BARRIERS))
def test_session_counter_prices_as_open_plus_batches(barrier):
    """The cumulative counter merges one solve per full batch; priced,
    it equals the open's cost plus every batch's ``cost_s`` (merging
    keeps one ``barrier_kind`` instead of summing it out of range)."""
    spec = SessionSpec(
        name="priced", algorithm="mst",
        params={"num_nodes": 120, "num_edges": 480},
        strategy={"barrier": barrier}, seed=1, full_threshold=0.0,
        batches=[[{"op": "add_edges", "count": 4, "seed": i}]
                 for i in (1, 2, 3)])
    session = Session.open(spec)
    open_cost = session.full_cost_s
    results = [session.apply_batch(ops) for ops in spec.batches]
    assert [r.mode for r in results] == ["full"] * 3
    assert CostModel().gpu_time(session.counter) == pytest.approx(
        open_cost + sum(r.cost_s for r in results), rel=1e-9)
    assert session.counter.scalars["barrier_kind"] == BARRIERS[barrier].index


def test_gauges_emitted_per_batch():
    tracer = Tracer()
    spec = _spec("mst", 15)
    with tracer.activate():
        session = Session.open(spec)
        for ops in spec.batches:
            session.apply_batch(ops)
    dirty = tracer.gauges["sessions.dirty_fraction"]
    ratio = tracer.gauges["sessions.cost_ratio"]
    assert len(dirty) == len(ratio) == 3
    assert all(0.0 <= v <= 1.0 for _, v in dirty)
    assert all(v >= 0.0 for _, v in ratio)
