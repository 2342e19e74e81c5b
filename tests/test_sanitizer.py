"""Tests for the kernel sanitizer (``repro.analysis``): the dynamic race
detector, memory checker, barrier-divergence checker, and the static
lint pass.

The headline acceptance test is ``TestMarkingAudit``: the detector must
flag the Section 7.3 two-phase marking race on a seeded repro while the
three-phase engine — and every algorithm driver built on it — runs
clean.
"""

import numpy as np
import pytest

from repro.analysis import (BARRIER_DIVERGENCE, DOUBLE_FREE, OUT_OF_BOUNDS,
                            READ_WRITE, USE_AFTER_FREE, WRITE_WRITE,
                            RaceDetector)
from repro.analysis.static import (ModuleModel, Program, analyze_paths,
                                   run_rules)
from repro.core.conflict import three_phase_mark, two_phase_mark
from repro.core.ragged import Ragged
from repro.vgpu.atomics import atomic_add, scatter_write
from repro.vgpu.instrument import SANITIZER, record_read
from repro.vgpu.kernel import spmd_launch
from repro.vgpu.memory import DeviceAllocator


def overlapping_claims(seed: int, *, n_items=64, n_elems=40, k=6) -> Ragged:
    """Dense random claims: many items claiming few elements — the
    bench_ablation workload that makes two-phase marking fail."""
    r = np.random.default_rng(seed)
    return Ragged.from_lists(
        [list(r.integers(0, n_elems, size=k)) for _ in range(n_items)])


# --------------------------------------------------------------------- #
# marking-protocol audit: the Section 7.3 bug                           #
# --------------------------------------------------------------------- #
class TestMarkingAudit:
    def test_two_phase_race_is_detected(self):
        """Seeded repro: the 2-phase scheme grants overlapping exclusive
        ownership and the detector reports it as a write-write race."""
        hits = 0
        for seed in range(10):
            det = RaceDetector()
            with det.activate():
                two_phase_mark(40, overlapping_claims(seed),
                               np.random.default_rng(seed))
            hits += bool(det.reports)
        assert hits > 0, "2-phase marking never produced a detected race"

    def test_two_phase_finding_attribution(self):
        det = RaceDetector()
        with det.activate():
            two_phase_mark(40, overlapping_claims(0),
                           np.random.default_rng(0))
        assert det.reports, "seed 0 is a known repro"
        f = det.reports[0]
        assert f.kind == WRITE_WRITE
        assert "2phase" in f.message
        assert f.kernel == "conflict2"
        assert f.address >= 0
        assert len(f.threads) >= 2

    def test_three_phase_is_clean_same_workload(self):
        det = RaceDetector()
        with det.activate():
            for seed in range(10):
                res = three_phase_mark(40, overlapping_claims(seed),
                                       np.random.default_rng(seed),
                                       ensure_progress=True)
                assert res.winners.any()
        det.assert_clean()

    def test_assert_clean_raises_with_summary(self):
        det = RaceDetector()
        with det.activate():
            two_phase_mark(40, overlapping_claims(0),
                           np.random.default_rng(0))
        with pytest.raises(AssertionError, match="write-write"):
            det.assert_clean()


# --------------------------------------------------------------------- #
# phase analysis on hand-written kernels                                #
# --------------------------------------------------------------------- #
class TestPhaseAnalysis:
    def test_same_phase_write_write_conflict(self):
        det = RaceDetector()
        dest = np.zeros(8, dtype=np.int64)
        with det.activate(), det.kernel("toy"):
            scatter_write(dest, np.array([3, 3]), np.array([1, 2]),
                          np.random.default_rng(0),
                          tids=np.array([0, 1]))
        assert [f.kind for f in det.reports] == [WRITE_WRITE]
        assert det.reports[0].address == 3

    def test_barrier_separates_phases(self):
        """The same two stores are race-free once a barrier sits between
        them — phase analysis must reset at on_barrier."""
        det = RaceDetector()
        dest = np.zeros(8, dtype=np.int64)
        with det.activate(), det.kernel("toy") as d:
            scatter_write(dest, np.array([3]), np.array([1]),
                          tids=np.array([0]))
            d.on_barrier()
            scatter_write(dest, np.array([3]), np.array([2]),
                          tids=np.array([1]))
        det.assert_clean()

    def test_same_thread_does_not_race_itself(self):
        det = RaceDetector()
        dest = np.zeros(8, dtype=np.int64)
        with det.activate(), det.kernel("toy"):
            scatter_write(dest, np.array([3, 3]), np.array([1, 2]),
                          tids=np.array([5, 5]))
        det.assert_clean()

    def test_read_write_conflict(self):
        det = RaceDetector()
        dest = np.zeros(8, dtype=np.int64)
        with det.activate(), det.kernel("toy"):
            record_read(dest, np.array([2]), tids=np.array([0]))
            scatter_write(dest, np.array([2]), np.array([9]),
                          tids=np.array([1]))
        assert [f.kind for f in det.reports] == [READ_WRITE]

    def test_atomics_are_synchronization(self):
        """Concurrent atomic adds to one address are not a race."""
        det = RaceDetector()
        dest = np.zeros(4, dtype=np.int64)
        with det.activate(), det.kernel("toy"):
            atomic_add(dest, np.zeros(16, dtype=np.int64), 1)
        det.assert_clean()
        assert dest[0] == 16

    def test_anonymous_lanes_race(self):
        """Without explicit tids every lane is its own thread, so two
        anonymous stores to one address still conflict."""
        det = RaceDetector()
        dest = np.zeros(4, dtype=np.int64)
        with det.activate(), det.kernel("toy"):
            scatter_write(dest, np.array([1, 1]), np.array([7, 8]),
                          np.random.default_rng(0))
        assert [f.kind for f in det.reports] == [WRITE_WRITE]

    def test_ownership_exempts_winner_covers_interloper(self):
        """After a marking round, the owner may store to its element;
        any other thread storing there is flagged against the owner."""
        claims = Ragged.from_lists([[0, 1], [2, 3]])
        marks = np.zeros(8, dtype=np.int64)

        det = RaceDetector()
        with det.activate(), det.kernel("round"):
            three_phase_mark(8, claims, np.random.default_rng(0))
            # winner of element 0 (thread 0) writes it: fine
            scatter_write(marks, np.array([0]), np.array([42]),
                          tids=np.array([0]))
        det.assert_clean()

        det2 = RaceDetector()
        with det2.activate(), det2.kernel("round"):
            three_phase_mark(8, claims, np.random.default_rng(0))
            scatter_write(marks, np.array([0]), np.array([13]),
                          tids=np.array([1]))   # not the owner
        assert [f.kind for f in det2.reports] == [WRITE_WRITE]
        assert "owned by thread 0" in det2.reports[0].message


# --------------------------------------------------------------------- #
# memory checking                                                       #
# --------------------------------------------------------------------- #
class TestMemoryChecks:
    def test_out_of_bounds_negative_index(self):
        det = RaceDetector()
        dest = np.zeros(8, dtype=np.int64)
        with det.activate():
            scatter_write(dest, np.array([-1]), np.array([1]))
        assert [f.kind for f in det.reports] == [OUT_OF_BOUNDS]

    def test_out_of_bounds_past_extent_on_alloc(self):
        alloc = DeviceAllocator()
        det = RaceDetector()
        with det.activate():
            arr = alloc.malloc(4, fill=0)
            # the finding is recorded before the store executes, so the
            # IndexError NumPy raises does not mask the diagnosis
            with pytest.raises(IndexError):
                atomic_add(arr, np.array([7]), 1)
        assert any(f.kind == OUT_OF_BOUNDS for f in det.reports)

    def test_use_after_free_via_realloc(self):
        alloc = DeviceAllocator()
        det = RaceDetector()
        with det.activate():
            arr = alloc.malloc(4, fill=0)
            stale = arr
            arr = alloc.realloc(arr, 8)
            scatter_write(stale, np.array([0]), np.array([1]))
        assert any(f.kind == USE_AFTER_FREE for f in det.reports)

    def test_double_free(self):
        alloc = DeviceAllocator()
        det = RaceDetector()
        with det.activate():
            arr = alloc.malloc(4, fill=0)
            alloc.free(arr)
            alloc.free(arr)
        assert any(f.kind == DOUBLE_FREE for f in det.reports)

    def test_clean_alloc_use_free(self):
        alloc = DeviceAllocator()
        det = RaceDetector()
        with det.activate():
            arr = alloc.malloc(4, fill=0)
            atomic_add(arr, np.array([0, 1]), 1)
            alloc.free(arr)
        det.assert_clean()


# --------------------------------------------------------------------- #
# barrier divergence                                                    #
# --------------------------------------------------------------------- #
class TestBarrierDivergence:
    def test_uneven_yield_counts_reported(self):
        def kern(tid, out):
            for step in range(tid + 1):    # tid 0: 1 barrier, tid 3: 4
                out[tid] += 1
                yield

        det = RaceDetector()
        out = np.zeros(4, dtype=np.int64)
        with det.activate():
            spmd_launch(4, kern, out, name="diverge")
        kinds = [f.kind for f in det.reports]
        assert BARRIER_DIVERGENCE in kinds
        f = det.reports[kinds.index(BARRIER_DIVERGENCE)]
        assert f.kernel == "diverge"
        assert 0 in f.threads       # tid 0 lags the most

    def test_uniform_yield_counts_clean(self):
        def kern(tid, out):
            for _ in range(3):
                out[tid] += 1
                yield

        det = RaceDetector()
        out = np.zeros(4, dtype=np.int64)
        with det.activate():
            spmd_launch(4, kern, out, name="uniform")
        det.assert_clean()

    def test_plain_function_kernels_clean(self):
        det = RaceDetector()
        out = np.zeros(4, dtype=np.int64)
        with det.activate():
            spmd_launch(4, lambda tid, o: o.__setitem__(tid, tid), out)
        det.assert_clean()


# --------------------------------------------------------------------- #
# detector mechanics                                                    #
# --------------------------------------------------------------------- #
class TestDetectorMechanics:
    def test_activation_is_scoped(self):
        det = RaceDetector()
        assert SANITIZER.current is None
        with det.activate():
            assert SANITIZER.current is det
        assert SANITIZER.current is None

    def test_watch_labels_reports(self):
        det = RaceDetector()
        dest = np.zeros(8, dtype=np.int64)
        with det.activate(), det.kernel("toy"):
            det.watch(dest, "marks")
            scatter_write(dest, np.array([1, 1]), np.array([1, 2]),
                          np.random.default_rng(0))
        assert det.reports[0].array == "marks"
        assert "marks" in str(det.reports[0])

    def test_max_reports_cap(self):
        det = RaceDetector(max_reports=2)
        dest = np.zeros(16, dtype=np.int64)
        with det.activate(), det.kernel("toy"):
            idx = np.repeat(np.arange(8), 2)
            scatter_write(dest, idx, np.arange(16),
                          np.random.default_rng(0))
        assert len(det.reports) == 2
        assert det.suppressed == 6
        assert not det.clean

    def test_no_sanitizer_is_free_and_safe(self):
        dest = np.zeros(4, dtype=np.int64)
        scatter_write(dest, np.array([1, 1]), np.array([5, 6]),
                      np.random.default_rng(0))
        assert SANITIZER.current is None


# --------------------------------------------------------------------- #
# end-to-end: every driver is clean under the detector                  #
# --------------------------------------------------------------------- #
class TestDriversClean:
    def test_dmr_refine_clean(self, small_mesh):
        from repro.dmr import DMRConfig, refine_gpu
        det = RaceDetector()
        res = refine_gpu(small_mesh.copy(), DMRConfig(seed=3),
                         sanitizer=det)
        assert res.converged
        det.assert_clean()

    def test_edgeflip_clean(self):
        from repro.meshing.edgeflip import legalize_gpu, random_legal_flips
        from repro.meshing.generate import random_mesh
        m = random_mesh(400, seed=9)
        random_legal_flips(m, 60, seed=1)
        det = RaceDetector()
        legalize_gpu(m, seed=2, sanitizer=det)
        det.assert_clean()

    def test_gpu_insert_clean(self):
        from repro.meshing.generate import random_mesh
        from repro.meshing.gpu_insert import gpu_insert_points
        m = random_mesh(300, seed=5)
        r = np.random.default_rng(4)
        xs = r.uniform(m.px.min() + .05, m.px.max() - .05, 40)
        ys = r.uniform(m.py.min() + .05, m.py.max() - .05, 40)
        det = RaceDetector()
        res = gpu_insert_points(m, xs, ys, seed=6, sanitizer=det)
        assert res.inserted + res.duplicates_skipped == 40
        det.assert_clean()

    def test_boruvka_clean(self):
        from repro.mst.boruvka_gpu import boruvka_gpu
        r = np.random.default_rng(0)
        n, m = 200, 600
        src = r.integers(0, n, m)
        dst = (src + 1 + r.integers(0, n - 1, m)) % n
        w = r.integers(1, 1000, m)
        det = RaceDetector()
        res = boruvka_gpu(n, src, dst, w, sanitizer=det)
        # spanning-forest invariant (input need not be connected)
        assert res.mst_edges.size == n - res.num_components
        det.assert_clean()

    def test_survey_propagation_clean(self):
        from repro.satsp.formula import random_ksat
        from repro.satsp.sp import SPConfig, solve_sp
        det = RaceDetector()
        res = solve_sp(random_ksat(150, ratio=4.0, seed=2),
                       SPConfig(seed=2), sanitizer=det)
        assert res.status == "SAT"
        det.assert_clean()

    def test_andersen_clean(self):
        from repro.pta.andersen import andersen_pull
        from repro.pta.constraints import generate_constraints
        det = RaceDetector()
        res = andersen_pull(generate_constraints(120, 360, seed=3),
                            sanitizer=det)
        assert res.total_facts() > 0
        det.assert_clean()

    def test_morph_engine_clean(self):
        """The generic round engine (greedy recoloring toy) is clean."""
        from repro.core.engine import MorphPlan, run_morph_rounds
        color = np.full(30, -1, dtype=np.int64)
        adj = {i: [(i + 1) % 30, (i - 1) % 30] for i in range(30)}

        def active():
            return np.flatnonzero(color < 0).tolist()

        def plan(items, _rng):
            for i in items:
                yield MorphPlan(item=i, claims=[i] + adj[i], token=i)

        def apply(p):
            i = p.token
            used = {int(color[j]) for j in adj[i] if color[j] >= 0}
            c = 0
            while c in used:
                c += 1
            color[i] = c
            return True

        det = RaceDetector()
        with det.activate():
            run_morph_rounds(active, plan, apply, lambda: 30,
                             rng=np.random.default_rng(0))
        assert (color >= 0).all()
        det.assert_clean()


# --------------------------------------------------------------------- #
# static lint pass                                                      #
# --------------------------------------------------------------------- #
#: the kernel lint rules of :mod:`repro.analysis.static`
KRN_CODES = ("KRN101", "KRN102", "KRN103", "KRN104")


def lint_source(src: str) -> list:
    """Run the KRN rules over one module's source text."""
    return run_rules(Program(modules=[ModuleModel("x.py", src)]),
                     codes=KRN_CODES)


class TestLint:
    def test_raw_store_in_launch_block(self):
        src = (
            "def kern(ctr, dest, idx, val):\n"
            "    with ctr.launch('k', items=4) as rec:\n"
            "        dest[idx] = val\n"
            "        rec(writes=4)\n"
        )
        findings = lint_source(src)
        assert [f.code for f in findings] == ["KRN101"]
        assert findings[0].line == 3

    def test_constant_subscript_is_exempt(self):
        src = (
            "def kern(ctr, dest):\n"
            "    with ctr.launch('k', items=1) as rec:\n"
            "        dest[0] = 1\n"
            "        dest[:] = 2\n"
            "        rec(writes=2)\n"
        )
        assert lint_source(src) == []

    def test_host_thread_loop_in_launch_block(self):
        src = (
            "def kern(ctr, dest):\n"
            "    with ctr.launch('k', items=8) as rec:\n"
            "        for t in range(8):\n"
            "            pass\n"
            "        rec(writes=8)\n"
        )
        codes = [f.code for f in lint_source(src)]
        assert "KRN102" in codes

    def test_missing_op_accounting(self):
        src = (
            "def kern(ctr):\n"
            "    with ctr.launch('k', items=4) as rec:\n"
            "        pass\n"
        )
        codes = [f.code for f in lint_source(src)]
        assert "KRN103" in codes

    def test_bare_except(self):
        src = (
            "try:\n"
            "    pass\n"
            "except:\n"
            "    pass\n"
        )
        codes = [f.code for f in lint_source(src)]
        assert codes == ["KRN104"]

    def test_clean_kernel_passes(self):
        src = (
            "from repro.vgpu.atomics import scatter_write\n"
            "def kern(ctr, dest, idx, val, rng):\n"
            "    with ctr.launch('k', items=4) as rec:\n"
            "        scatter_write(dest, idx, val, rng)\n"
            "        rec(writes=4)\n"
        )
        assert lint_source(src) == []

    def test_repo_source_tree_is_lint_clean(self):
        program = analyze_paths(["src/repro"])
        assert len(program.modules) > 50
        assert program.syntax_errors == []
        findings = run_rules(program, codes=KRN_CODES)
        assert findings == [], "\n".join(str(f) for f in findings)
