"""Failure injection: corrupt structures on purpose and assert the
validators catch every class of violation (so the invariants the test
suite leans on are actually enforced, not vacuous)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import OpCounter
from repro.errors import EngineStalled, KernelAborted, ReproError
from repro.meshing import TriMesh
from repro.meshing.generate import random_points_mesh
from repro.resilience import Resilience, ResiliencePolicy
from repro.serve import FaultPlan, JobSpec, run_job
from repro.serve.jobs import JobContext, digest_arrays, get_adapter
from repro.vgpu.faults import FaultRule, FaultRules


@pytest.fixture()
def mesh():
    return random_points_mesh(40, seed=77).copy()


class TestMeshValidatorCatches:
    def test_asymmetric_neighbor_link(self, mesh):
        t = int(mesh.live_slots()[0])
        for k in range(3):
            if mesh.nbr[t, k] >= 0:
                mesh.nbr[t, k] = int(mesh.live_slots()[-1])
                break
        with pytest.raises(AssertionError):
            mesh.validate()

    def test_neighbor_pointing_at_deleted(self, mesh):
        # find an interior triangle and delete it without unlinking
        for t in mesh.live_slots().tolist():
            if all(mesh.nbr[t, k] >= 0 for k in range(3)):
                mesh.isdel[t] = True
                break
        with pytest.raises(AssertionError):
            mesh.validate()

    def test_flipped_orientation(self, mesh):
        t = int(mesh.live_slots()[0])
        mesh.tri[t] = mesh.tri[t][::-1]
        with pytest.raises(AssertionError):
            mesh.validate()

    def test_edge_shared_three_ways(self, mesh):
        # duplicate a live triangle into a free slot
        t = int(mesh.live_slots()[0])
        mesh.ensure_tri_capacity(mesh.n_tris + 1)
        s = mesh.n_tris
        mesh.n_tris += 1
        mesh.tri[s] = mesh.tri[t]
        mesh.isdel[s] = False
        with pytest.raises(AssertionError):
            mesh.validate()

    def test_shared_edge_vertex_mismatch(self, mesh):
        # re-point a neighbor edge index at the wrong edge
        for t in mesh.live_slots().tolist():
            for k in range(3):
                u = int(mesh.nbr[t, k])
                if u >= 0:
                    j = int(mesh.nbr_edge[t, k])
                    mesh.nbr_edge[t, k] = (j + 1) % 3
                    mesh.nbr[u, (j + 1) % 3] = t
                    mesh.nbr_edge[u, (j + 1) % 3] = k
                    with pytest.raises(AssertionError):
                        mesh.validate()
                    return

    def test_non_delaunay_caught_by_delaunay_check(self, mesh):
        from repro.meshing import random_legal_flips
        flips = random_legal_flips(mesh, 3, seed=1)
        assert flips == 3
        mesh.validate()  # structurally still fine
        with pytest.raises(AssertionError):
            mesh.validate(check_delaunay=True)


class TestConstructorRejections:
    def test_mismatched_coordinate_arrays(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros(3), np.zeros(4),
                    np.array([[0, 1, 2]], dtype=np.int64))

    def test_wrong_triangle_shape(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros(3), np.zeros(3),
                    np.array([[0, 1]], dtype=np.int64))

    def test_degenerate_write_rejected(self, mesh):
        v = int(mesh.tri[int(mesh.live_slots()[0]), 0])
        mesh.ensure_tri_capacity(mesh.n_tris + 1)
        with pytest.raises(ValueError):
            mesh.write_triangle(mesh.n_tris, v, v, v)


class TestConflictEngineRobustness:
    def test_out_of_range_claims_fail_loudly(self, rng):
        from repro.core.conflict import three_phase_mark
        from repro.core.ragged import Ragged
        claims = Ragged.from_lists([[99]])
        with pytest.raises(IndexError):
            three_phase_mark(10, claims, rng)

    def test_mark_buffer_too_small_fails(self, rng):
        from repro.core.conflict import three_phase_mark
        from repro.core.ragged import Ragged
        marks = np.full(2, -1, dtype=np.int64)
        claims = Ragged.from_lists([[5]])
        with pytest.raises(IndexError):
            three_phase_mark(10, claims, rng, marks=marks)


class TestGraphValidators:
    def test_csr_rejects_bad_offsets(self):
        from repro.core.csr import CSRGraph
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2, 3]), np.array([0, 1]))

    def test_constraints_reject_shape_mismatch(self):
        from repro.pta import Constraints
        with pytest.raises(ValueError):
            Constraints(num_vars=3, kind=np.array([0], dtype=np.int8),
                        lhs=np.array([0, 1]), rhs=np.array([1]))

    def test_cnf_rejects_bad_signs(self):
        from repro.satsp import CNF
        with pytest.raises(ValueError):
            CNF(num_vars=3, vars=np.array([[0, 1, 2]]),
                signs=np.array([[2, 1, 1]], dtype=np.int8))

    def test_mst_weight_width_guard(self):
        from repro.mst import boruvka_gpu
        with pytest.raises(ValueError):
            boruvka_gpu(2, np.array([0]), np.array([1]),
                        np.array([1 << 40], dtype=np.int64))


# --------------------------------------------------------------------- #
# Chaos suite (opt-in: ``pytest --chaos``)                              #
#                                                                       #
# Seeded device faults against every driver.  The contract under test   #
# is the §7 degradation story: a faulted run either completes with a    #
# result digest byte-identical to the fault-free run (layout-neutral    #
# faults absorbed by repro.resilience) or fails with a typed            #
# repro.errors.ReproError — never a bare RuntimeError, never silently   #
# wrong output.  Deletion faults change storage layout by design, so   #
# for those the witness is same-plan determinism plus mesh validity.    #
# --------------------------------------------------------------------- #

chaos = pytest.mark.chaos

#: small-but-nontrivial inputs per driver (several rounds each)
CHAOS_PARAMS = {
    "dmr": {"n_triangles": 100},
    "insertion": {"n_triangles": 80, "n_points": 4},
    "sp": {"num_vars": 400},   # large enough that SP phases actually run
    "pta": {"num_vars": 30, "num_constraints": 50},
    "mst": {"num_nodes": 50, "num_edges": 160},
    "engine": {"num_nodes": 40},
}

#: the round-boundary launch each driver guards with launch_ok()
GUARD_KERNEL = {
    "dmr": "dmr.round",
    "insertion": "insertion.round",
    "sp": "sp.phase",
    "pta": "pta.round",
    "mst": "mst.round",
    "engine": "serve.recolor",
}


@functools.lru_cache(maxsize=None)
def _clean_digest(algo: str, seed: int = 5) -> str:
    rec = run_job(JobSpec(name=f"clean-{algo}", algorithm=algo,
                          params=CHAOS_PARAMS[algo], seed=seed))
    assert rec.ok
    return rec.result.digest


def _abort_spec(algo: str, *, resilience: bool, at=(1,)) -> JobSpec:
    return JobSpec(name=f"chaos-{algo}", algorithm=algo,
                   params=CHAOS_PARAMS[algo], seed=5,
                   resilience=resilience, retries=0,
                   fault=FaultPlan(kind="kernel_abort", at_event=at,
                                   kernel=GUARD_KERNEL[algo]))


@chaos
class TestKernelAbortEveryDriver:
    """One transient abort at the first guarded launch, per driver."""

    @pytest.mark.parametrize("algo", sorted(CHAOS_PARAMS))
    def test_without_resilience_fails_typed(self, algo):
        rec = run_job(_abort_spec(algo, resilience=False))
        assert not rec.ok
        assert "KernelAborted" in rec.failures[0]

    @pytest.mark.parametrize("algo", sorted(CHAOS_PARAMS))
    def test_direct_driver_raises_repro_error(self, algo):
        plan = FaultRules.of(FaultRule(
            kind="kernel_abort", at=(1,), kernel=GUARD_KERNEL[algo]))
        ctx = JobContext(counter=OpCounter())
        with plan.injector().activate():
            with pytest.raises(ReproError) as exc_info:
                get_adapter(algo)(CHAOS_PARAMS[algo], {}, 5, ctx)
        assert isinstance(exc_info.value, KernelAborted)

    @pytest.mark.parametrize("algo", sorted(CHAOS_PARAMS))
    def test_with_resilience_digest_is_byte_identical(self, algo):
        rec = run_job(_abort_spec(algo, resilience=True))
        assert rec.ok and rec.attempts == 1
        assert rec.degraded
        assert any(e["kind"] == "kernel_retry"
                   for e in rec.resilience_events)
        assert rec.result.digest == _clean_digest(algo)

    @pytest.mark.parametrize("algo", sorted(CHAOS_PARAMS))
    def test_retry_budget_exhaustion_is_typed(self, algo):
        # Abort the same guarded launch more times than the retry
        # budget allows: resilience must give up *typed*, not loop.
        rec = run_job(_abort_spec(algo, resilience=True,
                                  at=(1, 2, 3, 4)))
        assert not rec.ok
        assert "KernelAborted" in rec.failures[0]


@chaos
class TestAdditionFallbackChain:
    """§7.1: Kernel-Only → Kernel-Host → Host-Only, digest preserved."""

    def test_chunk_exhaustion_downgrades_once(self):
        rec = run_job(JobSpec(
            name="pta-chunk", algorithm="pta", params=CHAOS_PARAMS["pta"],
            seed=5, resilience=True,
            fault=FaultPlan(kind="chunk_exhausted", at_event=(1,))))
        assert rec.ok and rec.degraded
        downs = [e for e in rec.resilience_events
                 if e["kind"] == "addition_downgrade"]
        assert [(d["from_"], d["to"]) for d in downs] == \
            [("kernel_only", "kernel_host")]
        assert rec.result.digest == _clean_digest("pta")

    def test_full_chain_to_host_only_with_gauges(self):
        from repro.obs import Tracer
        plan = FaultRules.of(
            FaultRule(kind="chunk_exhausted", at=(1,)),
            FaultRule(kind="oom", at=(1,)))
        resil = Resilience()
        tracer = Tracer()
        ctx = JobContext(counter=OpCounter())
        with tracer.activate(), plan.injector().activate(), resil.activate():
            arrays, summary = get_adapter("pta")(
                CHAOS_PARAMS["pta"], {}, 5, ctx)
        downs = [e for e in resil.events
                 if e["kind"] == "addition_downgrade"]
        assert [(d["from_"], d["to"]) for d in downs] == \
            [("kernel_only", "kernel_host"), ("kernel_host", "host_only")]
        # each downgrade is mirrored to the obs layer as a gauge sample
        assert len(tracer.gauges["resilience.addition_downgrade"]) == 2
        assert digest_arrays(arrays, summary) == _clean_digest("pta")


@chaos
class TestDeletionFallback:
    """§7.2: Recycling → Marking is plan-deterministic and valid."""

    def _run(self):
        from repro.dmr import DMRConfig, refine_gpu
        from repro.meshing.generate import random_mesh
        plan = FaultRules.of(FaultRule(kind="pool_exhausted", at=(1,)))
        resil = Resilience()
        mesh = random_mesh(120, seed=3).copy()
        with plan.injector().activate(), resil.activate():
            refine_gpu(mesh, DMRConfig())
        return mesh, resil

    def test_marking_fallback_is_plan_deterministic(self):
        mesh_a, resil_a = self._run()
        mesh_b, resil_b = self._run()
        assert any(e["kind"] == "deletion_fallback" and e["to"] == "marking"
                   for e in resil_a.events)
        mesh_a.validate()
        assert resil_a.events == resil_b.events
        np.testing.assert_array_equal(mesh_a.tri[:mesh_a.n_tris],
                                      mesh_b.tri[:mesh_b.n_tris])
        np.testing.assert_array_equal(mesh_a.isdel[:mesh_a.n_tris],
                                      mesh_b.isdel[:mesh_b.n_tris])

    def test_without_resilience_exhaustion_is_typed(self):
        from repro.dmr import DMRConfig, refine_gpu
        from repro.errors import RecyclePoolExhausted
        from repro.meshing.generate import random_mesh
        plan = FaultRules.of(FaultRule(kind="pool_exhausted", at=(1,)))
        mesh = random_mesh(120, seed=3).copy()
        with plan.injector().activate():
            with pytest.raises(RecyclePoolExhausted):
                refine_gpu(mesh, DMRConfig())


@chaos
class TestSlowTransfer:
    """Slow host transfers delay but never change the result."""

    def test_digest_unchanged_and_counted(self):
        plan = FaultRules.of(
            FaultRule(kind="slow_transfer", rate=1.0, delay_s=0.0))
        ctx = JobContext(counter=OpCounter())
        with plan.injector().activate() as inj:
            arrays, summary = get_adapter("dmr")(
                CHAOS_PARAMS["dmr"], {}, 5, ctx)
        assert inj.fired["slow_transfer"] >= 2  # h2d and d2h both hit
        assert digest_arrays(arrays, summary) == _clean_digest("dmr")


@chaos
class TestEngineStallEscalation:
    """The watchdog ladder rescues stalls the old engine died on."""

    @staticmethod
    def _stubborn_workload(fail_applies: int):
        from repro.core.engine import MorphPlan
        state = {"applies": 0, "done": False}

        def active():
            return [] if state["done"] else [0]

        def plan(items, rng):
            return [MorphPlan(item=0, claims=[0])]

        def apply(p):
            state["applies"] += 1
            if state["applies"] > fail_applies:
                state["done"] = True
                return True
            return False

        return active, plan, apply

    def test_ladder_rescues_a_stall(self):
        from repro.core.engine import run_morph_rounds
        # Five zero-win rounds: the pre-ladder engine raised after two.
        active, plan, apply = self._stubborn_workload(5)
        resil = Resilience()
        with resil.activate():
            stats = run_morph_rounds(active, plan, apply, lambda: 1)
        assert stats.applied == 1
        levels = [e["level"] for e in resil.events
                  if e["kind"] == "stall_escalation"]
        assert levels == [1, 2]
        assert any(e["kind"] == "stall_recovered" for e in resil.events)

    def test_exhausted_ladder_raises_typed(self):
        from repro.core.engine import run_morph_rounds
        active, plan, apply = self._stubborn_workload(10 ** 6)
        resil = Resilience(policy=ResiliencePolicy(max_escalations=0))
        with pytest.raises(EngineStalled) as exc_info, resil.activate():
            run_morph_rounds(active, plan, apply, lambda: 1)
        assert isinstance(exc_info.value, ReproError)
        assert exc_info.value.escalation == 0
        assert "stalled" in str(exc_info.value)


@chaos
class TestChaosProperties:
    """Hypothesis: any seeded abort storm is deterministic and ends in
    either a byte-identical digest or a typed ReproError."""

    @given(fault_seed=st.integers(0, 2 ** 16),
           rate=st.floats(0.05, 0.5))
    @settings(max_examples=10, deadline=None)
    def test_mst_abort_storm(self, fault_seed, rate):
        def attempt():
            plan = FaultRules.of(FaultRule(
                kind="kernel_abort", rate=rate, seed=fault_seed,
                kernel=GUARD_KERNEL["mst"]))
            ctx = JobContext(counter=OpCounter())
            try:
                with plan.injector().activate(), Resilience().activate():
                    arrays, summary = get_adapter("mst")(
                        CHAOS_PARAMS["mst"], {}, 5, ctx)
            except ReproError as exc:
                return ("raised", type(exc).__name__)
            return ("ok", digest_arrays(arrays, summary))

        first, second = attempt(), attempt()
        assert first == second  # same plan => same outcome, bit for bit
        if first[0] == "ok":
            assert first[1] == _clean_digest("mst")
        else:
            assert first[1] == "KernelAborted"
