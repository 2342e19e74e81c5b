"""Reference equivalence for the array-pass PTA host loops.

The solvers evaluate phase 1 (load/store constraints) as one batched
bit-matrix pass, keep the constraint graph in one flat sorted key
index, and pick the phase-2 pull candidates with one ``reduceat`` over
its CSR view.  This module keeps the scalar formulation they replaced
as the reference: bit-by-bit ``members``, one constraint at a time in
phase 1, one node at a time in phase 2, and per-node ``ChunkList``\\ s
grown through ``ChunkAllocator.insert_many``.  Every observable must
agree: the points-to bits, rounds, edges added, sweeps, per-kernel
``KernelStats`` and the counter scalars (``pta.chunks_malloced``).
"""

import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import OpCounter
from repro.pta import (BitMatrix, Constraints, Kind, andersen_pull,
                       andersen_push, collapse_cycles, generate_constraints)
from repro.resilience.policy import Resilience
from repro.serve.checkpoint import CheckpointStore, dumps_state, loads_state
from repro.sessions import Session, SessionSpec
from repro.sessions.planners.pta import PtaPlanner
from repro.vgpu.faults import FaultRule, FaultRules
from repro.vgpu.memory import ChunkAllocator

FIXTURES = Path(__file__).parent / "fixtures" / "sessions"


# ------------------------------------------------------------------ #
# The scalar reference                                               #
# ------------------------------------------------------------------ #

def ref_members(row: np.ndarray) -> np.ndarray:
    """Sorted member ids of one bit row, one bit at a time."""
    out = []
    for w in np.flatnonzero(row):
        word = int(row[w])
        base = int(w) << 6
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
    return np.asarray(out, dtype=np.int64)


def ref_union_into(bits: np.ndarray, dst: int, srcs: np.ndarray) -> bool:
    acc = np.bitwise_or.reduce(bits[srcs], axis=0)
    new = bits[dst] | acc
    changed = bool(np.any(new != bits[dst]))
    bits[dst] = new
    return changed


class RefLists:
    """One ``ChunkList`` per node, grown through ``insert_many``."""

    def __init__(self, n: int, chunk_size: int) -> None:
        self.alloc = ChunkAllocator(chunk_size)
        self.lists = [self.alloc.new_list() for _ in range(n)]

    def add(self, owner, other) -> int:
        owner = np.asarray(owner, dtype=np.int64)
        other = np.asarray(other, dtype=np.int64)
        return sum(self.alloc.insert_many(self.lists[v], other[owner == v])
                   for v in np.unique(owner).tolist())

    def of(self, node: int) -> np.ndarray:
        return self.lists[node].to_array()


def ref_phase1(pts, cons, rep, live_load, live_store):
    """Per-constraint load/store evaluation; ``live_*(i, p, q)``."""
    W = pts.words
    src, dst = [], []
    p_load, q_load = cons.of_kind(Kind.LOAD)
    p_store, q_store = cons.of_kind(Kind.STORE)
    work = np.zeros(p_load.size + p_store.size, dtype=np.int64)
    items = reads = 0
    for i, (p, q) in enumerate(zip(p_load.tolist(), q_load.tolist())):
        work[i] = 1
        if not live_load(i, p, q):
            continue
        vs = ref_members(pts.bits[q])
        items += 1
        reads += W + vs.size
        work[i] = 1 + vs.size
        src += rep[vs].tolist()
        dst += [p] * vs.size
    for i, (p, q) in enumerate(zip(p_store.tolist(), q_store.tolist())):
        j = p_load.size + i
        work[j] = 1
        if not live_store(i, p, q):
            continue
        vs = ref_members(pts.bits[p])
        items += 1
        reads += W + vs.size
        work[j] = 1 + vs.size
        src += [q] * vs.size
        dst += rep[vs].tolist()
    return src, dst, work, items, reads


def ref_sweep(pts, g, touched, forced):
    """Per-node pull sweep, Gauss–Seidel in ascending node order."""
    W = pts.words
    changed = np.zeros(pts.bits.shape[0], dtype=bool)
    work, reads, writes = [], 0, 0
    for v in range(pts.bits.shape[0]):
        inc = g.of(v)
        if inc.size == 0:
            continue
        if not forced[v] and not touched[inc].any():
            continue
        work.append(1 + inc.size)
        reads += (inc.size + 1) * W
        if ref_union_into(pts.bits, v, inc):
            changed[v] = True
            writes += W
    return changed, work, reads, writes


def ref_pull(cons, chunk_size=1024, rep=None):
    n = cons.num_vars
    rep = np.arange(n, dtype=np.int64) if rep is None else rep
    ctr, pts, g = OpCounter(), BitMatrix(n, n), RefLists(n, chunk_size)
    p_addr, q_addr = cons.of_kind(Kind.ADDRESS_OF)
    pts.add(p_addr, q_addr)
    ctr.launch("pta.init", items=int(p_addr.size),
               word_writes=int(p_addr.size), barriers=1)
    p_copy, q_copy = cons.of_kind(Kind.COPY)
    edges = g.add(p_copy, q_copy)
    ctr.launch("pta.addedge", items=int(p_copy.size),
               word_writes=2 * int(p_copy.size), barriers=1)
    changed = np.ones(n, dtype=bool)
    rounds = sweeps = 0
    while rounds < 10_000:
        rounds += 1
        first = rounds == 1
        src, dst, ls_work, _, reads = ref_phase1(
            pts, cons, rep, lambda i, p, q: first or changed[q],
            lambda i, p, q: first or changed[p])
        added = 0
        if src:
            before = g.alloc.chunks_allocated
            added = g.add(dst, src)
            ctr.bump("pta.chunks_malloced", g.alloc.chunks_allocated - before)
        edges += added
        ctr.launch("pta.addedge", items=int(ls_work.size), word_reads=reads,
                   word_writes=2 * added, barriers=1,
                   work_per_thread=ls_work)
        changed, work, reads, writes = ref_sweep(
            pts, g, changed, np.full(n, added > 0))
        sweeps += 1
        ctr.launch("pta.propagate", items=len(work), word_reads=reads,
                   word_writes=writes, barriers=1,
                   work_per_thread=np.asarray(sorted(work, reverse=True),
                                              dtype=np.int64)
                   if work else np.zeros(1, dtype=np.int64))
        if not changed.any() and added == 0:
            break
    return pts, g, ctr, (rounds, edges, sweeps)


def ref_push(cons, chunk_size=1024):
    n = cons.num_vars
    ident = np.arange(n, dtype=np.int64)
    ctr, pts, g = OpCounter(), BitMatrix(n, n), RefLists(n, chunk_size)
    W = pts.words
    p_addr, q_addr = cons.of_kind(Kind.ADDRESS_OF)
    pts.add(p_addr, q_addr)
    ctr.launch("pta.init", items=int(p_addr.size),
               word_writes=int(p_addr.size), barriers=1)
    p_copy, q_copy = cons.of_kind(Kind.COPY)
    edges = g.add(q_copy, p_copy)
    ctr.launch("pta.addedge", items=int(p_copy.size),
               word_writes=2 * int(p_copy.size), barriers=1)
    changed = np.ones(n, dtype=bool)
    rounds = sweeps = 0
    while rounds < 10_000:
        rounds += 1
        first = rounds == 1
        src, dst, ls_work, _, reads = ref_phase1(
            pts, cons, ident, lambda i, p, q: first or changed[q],
            lambda i, p, q: first or changed[p])
        added = g.add(src, dst) if src else 0
        edges += added
        ctr.launch("pta.addedge", items=int(ls_work.size), word_reads=reads,
                   word_writes=2 * added, barriers=1)
        degs = np.asarray([len(lst) for lst in g.lists])
        srcs = (np.flatnonzero(degs > 0) if added > 0 or first
                else np.flatnonzero(changed))
        changed = np.zeros(n, dtype=bool)
        reads = writes = atomics = 0
        work = []
        for s in srcs.tolist():
            out = g.of(s)
            work.append(1 + out.size)
            if out.size == 0:
                continue
            reads += W
            for d in out.tolist():
                before = pts.bits[d].copy()
                pts.bits[d] |= pts.bits[s]
                atomics += W
                writes += W
                if np.any(pts.bits[d] != before):
                    changed[d] = True
        sweeps += 1
        ctr.launch("pta.propagate", items=int(srcs.size), word_reads=reads,
                   word_writes=writes, atomics=atomics, barriers=1,
                   work_per_thread=np.asarray(work, dtype=np.int64)
                   if work else np.zeros(1, dtype=np.int64))
        if not changed.any() and added == 0:
            break
    return pts, ctr, (rounds, edges, sweeps)


def ref_warm_start(pts, g, cons, delta, ctr):
    """The session planner's monotone warm start, per constraint/node."""
    n = cons.num_vars
    W = pts.words
    ident = np.arange(n, dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    gained = np.zeros(n, dtype=bool)
    p_addr, q_addr = delta.of_kind(Kind.ADDRESS_OF)
    if p_addr.size:
        rows = np.unique(p_addr)
        before = pts.bits[rows].copy()
        pts.add(p_addr, q_addr)
        changed[rows] |= np.any(pts.bits[rows] != before, axis=1)
    ctr.launch("pta.init", items=int(p_addr.size),
               word_writes=int(p_addr.size), barriers=1)
    p_copy, q_copy = delta.of_kind(Kind.COPY)
    edges = g.add(p_copy, q_copy)
    if p_copy.size:
        gained[np.unique(p_copy)] = True
    ctr.launch("pta.addedge", items=int(p_copy.size),
               word_writes=2 * int(p_copy.size), barriers=1)
    n_load = cons.of_kind(Kind.LOAD)[0].size
    n_store = cons.of_kind(Kind.STORE)[0].size
    new_load = delta.of_kind(Kind.LOAD)[0].size
    new_store = delta.of_kind(Kind.STORE)[0].size
    rounds = sweeps = 0
    while rounds < 10_000:
        rounds += 1
        first = rounds == 1
        src, dst, _, items, reads = ref_phase1(
            pts, cons, ident,
            lambda i, p, q: changed[q] or (first and i >= n_load - new_load),
            lambda i, p, q: changed[p] or (first and
                                           i >= n_store - new_store))
        added = 0
        if src:
            added = g.add(dst, src)
            gained[np.unique(dst)] = True
        edges += added
        ctr.launch("pta.addedge", items=items, word_reads=reads,
                   word_writes=2 * added, barriers=1)
        changed, work, reads, writes = ref_sweep(pts, g, changed, gained)
        sweeps += 1
        ctr.launch("pta.propagate", items=len(work), word_reads=reads,
                   word_writes=writes, barriers=1)
        gained = np.zeros(n, dtype=bool)
        if not changed.any() and added == 0:
            break
    return rounds, edges, sweeps


# ------------------------------------------------------------------ #
# Generated inputs                                                   #
# ------------------------------------------------------------------ #

#: universes off and on a 64-bit word boundary
UNIVERSES = (1, 5, 63, 64, 65, 100, 128, 130)
CHUNK_SIZES = (1, 3, 8, 1024)


@st.composite
def constraint_sets(draw, max_constraints=90):
    n = draw(st.sampled_from(UNIVERSES))
    kinds = draw(st.sampled_from(((0, 1, 2, 3), (0, 1), (0, 2, 3))))
    rows = draw(st.lists(st.tuples(st.sampled_from(kinds),
                                   st.integers(0, n - 1),
                                   st.integers(0, n - 1)),
                         max_size=max_constraints))
    if n > 63 and draw(st.booleans()):
        rows.append((0, draw(st.integers(0, n - 1)), 63))   # bit 63 set
    kind, lhs, rhs = (np.asarray(c, dtype=np.int64).reshape(-1)
                      for c in zip(*rows)) if rows else ([], [], [])
    return Constraints(n, kind, lhs, rhs)


def assert_same_counter(got: OpCounter, want: OpCounter) -> None:
    assert got.kernels() == want.kernels()
    assert got.scalars == want.scalars


def _result_tuple(res):
    return res.rounds, res.edges_added, res.propagation_sweeps


# ------------------------------------------------------------------ #
# Tests                                                              #
# ------------------------------------------------------------------ #

class TestMembers:
    @given(st.sampled_from(UNIVERSES + (200,)), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_members_match_bit_loop(self, universe, data):
        bm = BitMatrix(4, universe)
        ids = data.draw(st.lists(st.integers(0, 3), max_size=40))
        mem = data.draw(st.lists(st.integers(0, universe - 1),
                                 min_size=len(ids), max_size=len(ids)))
        bm.add(ids, mem)
        if universe > 63:
            bm.add([2], [63])
        for s in range(4):
            got = bm.members(s)
            assert got.dtype == np.int64
            assert got.tolist() == ref_members(bm.bits[s]).tolist()
        sel = np.asarray(data.draw(st.lists(st.integers(0, 3), max_size=6)),
                         dtype=np.int64)
        pos, members = bm.members_of(sel)
        for j, s in enumerate(sel.tolist()):
            assert members[pos == j].tolist() == \
                ref_members(bm.bits[s]).tolist()


class TestSolversMatchReference:
    @given(constraint_sets(), st.sampled_from(CHUNK_SIZES), st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_pull(self, cons, chunk_size, collapse):
        rep = None
        if collapse:
            cons, rep, _ = collapse_cycles(cons)
        res = andersen_pull(cons, chunk_size=chunk_size, rep=rep)
        pts, g, ctr, traj = ref_pull(cons, chunk_size, rep)
        np.testing.assert_array_equal(res.pts.bits, pts.bits)
        assert _result_tuple(res) == traj
        assert_same_counter(res.counter, ctr)
        alloc = res.graph.alloc
        assert (alloc.chunks_allocated, alloc.slots_used) == \
            (g.alloc.chunks_allocated, g.alloc.slots_used)
        for v in range(cons.num_vars):
            assert res.graph.incoming(v).tolist() == sorted(g.of(v).tolist())

    @given(constraint_sets(max_constraints=50), st.sampled_from(CHUNK_SIZES))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_push(self, cons, chunk_size):
        res = andersen_push(cons, chunk_size=chunk_size)
        pts, ctr, traj = ref_push(cons, chunk_size)
        np.testing.assert_array_equal(res.pts.bits, pts.bits)
        assert _result_tuple(res) == traj
        assert_same_counter(res.counter, ctr)

    @given(constraint_sets(), st.data(), st.sampled_from(CHUNK_SIZES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_session_warm_start(self, base, data, chunk_size):
        n = base.num_vars
        rows = data.draw(st.lists(st.tuples(st.integers(0, 3),
                                            st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  min_size=1, max_size=12))
        kind, lhs, rhs = (np.asarray(c, dtype=np.int64) for c in zip(*rows))
        delta = Constraints(n, kind, lhs, rhs)
        full = Constraints(n, np.concatenate([base.kind, delta.kind]),
                           np.concatenate([base.lhs, delta.lhs]),
                           np.concatenate([base.rhs, delta.rhs]))

        planner = PtaPlanner({"num_vars": n}, {"chunk_size": chunk_size}, 0)
        planner.cons = base
        planner._solve_full(OpCounter(), None)
        pts, g, _, _ = ref_pull(base, chunk_size)

        planner.cons = full
        ctr = OpCounter()
        planner._warm_start(delta, ctr)
        want = OpCounter()
        traj = ref_warm_start(pts, g, full, delta, want)

        np.testing.assert_array_equal(planner.pts.bits, pts.bits)
        s = planner.summary
        assert (s["rounds"], s["edges_added"], s["propagation_sweeps"]) == traj
        assert_same_counter(ctr, want)
        assert planner.graph.alloc.chunks_allocated == \
            g.alloc.chunks_allocated


class TestFlatIndex:
    def test_plain_graph_holds_no_chunk_arrays(self):
        res = andersen_pull(generate_constraints(200, 600, seed=3),
                            chunk_size=16)
        graph = res.graph
        assert not hasattr(graph, "lists")
        arrays = [v for v in vars(graph).values()
                  if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == \
            8 * (graph.num_edges + graph.num_nodes)
        assert graph.alloc.chunks_allocated > graph.num_nodes // 4

    def test_fallback_storage_models_the_same_content(self):
        # Both downgrades fire; the chain still receives every new ID.
        cons = generate_constraints(80, 200, seed=4)
        faults = FaultRules.of(FaultRule("chunk_exhausted", at=(2,)),
                               FaultRule("oom", at=(1,)))
        resil = Resilience()
        with faults.injector().activate():
            res = andersen_pull(cons, chunk_size=4, resilience=resil)
        assert [e["to"] for e in resil.events] == ["kernel_host",
                                                   "host_only"]
        storage = res.graph.storage
        for v in range(cons.num_vars):
            assert res.graph.incoming(v).tolist() == \
                sorted(storage.of(v).tolist())
        np.testing.assert_array_equal(res.pts.bits,
                                      andersen_pull(cons).pts.bits)

    def test_pickle_round_trip_keeps_the_index(self):
        graph = andersen_pull(generate_constraints(90, 300, seed=5),
                              chunk_size=8).graph
        graph.csr()
        back = loads_state(dumps_state(graph))
        np.testing.assert_array_equal(back.keys, graph.keys)
        np.testing.assert_array_equal(back.deg, graph.deg)
        assert back.alloc.chunks_allocated == graph.alloc.chunks_allocated
        for v in range(graph.num_nodes):
            assert back.incoming(v).tolist() == graph.incoming(v).tolist()

    def test_session_checkpoint_stays_small(self):
        # The 400-variable stream the e2e benchmark drives: four add
        # batches then a drop (full fallback), 58 batches in all.
        spec = SessionSpec(name="pta-ckpt", algorithm="pta",
                           params={"num_vars": 400, "num_constraints": 1600},
                           seed=11)
        session = Session.open(spec)
        for k in range(1, 59):
            op = ("drop_constraints", 2) if k % 5 == 0 \
                else ("add_constraints", 8)
            session.apply_batch([{"op": op[0], "count": op[1],
                                  "seed": 1000 + k}])
        assert session.planner.graph.num_edges > 20_000
        assert len(dumps_state(session.checkpoint())) <= 500_000


#: the fixture's stream; its checkpoint was written after batch 3 by
#: the per-node ChunkList graph the flat index replaced
RESUME_BATCHES = [[{"op": "add_constraints", "count": c, "seed": s}]
                  for c, s in ((6, 21), (5, 22), (4, 23),
                               (6, 24), (5, 25), (4, 26))]


def test_checkpoint_before_flat_index_resumes(tmp_path):
    spec = SessionSpec(name="pta-resume", algorithm="pta",
                       params={"num_vars": 60, "num_constraints": 140},
                       strategy={"chunk_size": 16}, seed=1,
                       batches=RESUME_BATCHES)
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    resumed = Session.open(spec, store=CheckpointStore(tmp_path))
    assert resumed.applied_batches == 3
    graph = resumed.planner.graph
    assert not hasattr(graph, "lists")
    assert graph.deg.max() > 16    # multi-chunk nodes in the old format

    fresh = Session.open(spec)
    want = [fresh.apply_batch(ops) for ops in RESUME_BATCHES][3:]
    got = [resumed.apply_batch(ops) for ops in RESUME_BATCHES[3:]]
    assert [dumps_state(r) for r in got] == [dumps_state(r) for r in want]
    np.testing.assert_array_equal(resumed.planner.graph.keys,
                                  fresh.planner.graph.keys)
    assert resumed.planner.graph.alloc.chunks_allocated == \
        fresh.planner.graph.alloc.chunks_allocated
    assert resumed.counter.kernels() == fresh.counter.kernels()


@pytest.mark.parametrize("chunk_size", [1, 1024])
def test_pull_graph_add_edges_dedups_within_and_across_batches(chunk_size):
    from repro.pta import PullGraph

    g = PullGraph(5, chunk_size=chunk_size)
    assert g.add_edges(np.array([], dtype=np.int64),
                       np.array([], dtype=np.int64)) == 0
    assert g.add_edges(np.array([4, 0, 4, 2]), np.array([1, 1, 1, 3])) == 3
    assert g.add_edges(np.array([0, 3, 4]), np.array([1, 1, 0])) == 2
    assert g.incoming(1).tolist() == [0, 3, 4]
    assert g.degrees().tolist() == [1, 3, 0, 1, 0]
    assert g.alloc.slots_used == 5
