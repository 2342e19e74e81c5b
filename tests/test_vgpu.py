"""Tests for the virtual GPU substrate: devices, atomics, memory,
barriers, kernels, and the cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import OpCounter
from repro.errors import ChunkPoolExhausted, OutOfDeviceMemory
from repro.resilience.addition import HostChunkAllocator
from repro.vgpu import (ChunkAllocator, CostModel, DeviceAllocator, FENCE,
                        HIERARCHICAL, LaunchConfig, NAIVE_ATOMIC, RecyclePool,
                        TESLA_C2070, XEON_E7540, spmd_launch)
from repro.vgpu.atomics import (atomic_add, atomic_cas_batch, atomic_max,
                                atomic_min, atomic_or, fetch_add_serialized,
                                scatter_write)
from repro.vgpu.faults import FaultRule, FaultRules


class TestDeviceSpecs:
    def test_c2070_geometry(self):
        assert TESLA_C2070.total_cores == 448
        assert TESLA_C2070.num_sms == 14
        assert TESLA_C2070.warp_size == 32

    def test_xeon(self):
        assert XEON_E7540.cores == 48

    def test_resident_threads_capped(self):
        t = TESLA_C2070.resident_threads(256, 1000)
        assert t == 14 * 8 * 256

    def test_launch_config_validation(self):
        with pytest.raises(ValueError):
            LaunchConfig(0, 32)
        with pytest.raises(ValueError):
            LaunchConfig(4, -1)

    def test_thread_ranges_cover_items(self):
        cfg = LaunchConfig(2, 4)
        ranges = list(cfg.thread_ranges(21))
        covered = []
        for _, lo, hi in ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(21))

    def test_for_input_scales_blocks(self):
        small = LaunchConfig.for_input(TESLA_C2070, 1000)
        large = LaunchConfig.for_input(TESLA_C2070, 10_000_000)
        assert small.blocks < large.blocks
        assert large.blocks <= 50 * TESLA_C2070.num_sms


class TestAtomics:
    def test_scatter_write_single_winner(self, rng):
        dest = np.zeros(4, dtype=np.int64)
        scatter_write(dest, np.array([1, 1, 1]), np.array([10, 20, 30]), rng)
        assert dest[1] in (10, 20, 30)

    def test_scatter_write_all_winners_seen(self):
        winners = set()
        for seed in range(60):
            dest = np.zeros(2, dtype=np.int64)
            scatter_write(dest, np.array([0, 0, 0]), np.array([1, 2, 3]),
                          np.random.default_rng(seed))
            winners.add(int(dest[0]))
        assert winners == {1, 2, 3}

    def test_atomic_add_exact(self):
        dest = np.zeros(3, dtype=np.int64)
        atomic_add(dest, np.array([0, 0, 2]), np.array([1, 2, 5]))
        assert dest.tolist() == [3, 0, 5]

    def test_atomic_min_max(self):
        dest = np.full(2, 10, dtype=np.int64)
        atomic_min(dest, np.array([0, 0]), np.array([7, 3]))
        atomic_max(dest, np.array([1, 1]), np.array([12, 40]))
        assert dest.tolist() == [3, 40]

    def test_fetch_add_old_values_partition(self, rng):
        tail = np.zeros(1, dtype=np.int64)
        old = fetch_add_serialized(tail, np.zeros(10, dtype=np.int64),
                                   np.ones(10, dtype=np.int64), rng)
        assert sorted(old.tolist()) == list(range(10))
        assert tail[0] == 10

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)),
                    min_size=1, max_size=30), st.integers(0, 99))
    @settings(max_examples=50)
    def test_fetch_add_final_state(self, ops, seed):
        idx = np.asarray([i for i, _ in ops])
        val = np.asarray([v for _, v in ops])
        dest = np.zeros(4, dtype=np.int64)
        old = fetch_add_serialized(dest, idx, val,
                                   np.random.default_rng(seed))
        np.testing.assert_array_equal(
            dest, np.bincount(idx, weights=val, minlength=4).astype(np.int64))
        # every op observed a value >= 0 and < final
        for k in range(idx.size):
            assert 0 <= old[k] < dest[idx[k]] + 1

    def test_cas_single_success_per_slot(self, rng):
        dest = np.full(1, -1, dtype=np.int64)
        ok = atomic_cas_batch(dest, np.zeros(5, dtype=np.int64), -1, 7, rng)
        assert ok.sum() == 1
        assert dest[0] == 7

    def test_cas_uncontended_fast_path(self, rng):
        dest = np.array([-1, 5, -1], dtype=np.int64)
        ok = atomic_cas_batch(dest, np.array([0, 1, 2]), -1, 9, rng)
        assert ok.tolist() == [True, False, True]
        assert dest.tolist() == [9, 5, 9]

    def test_atomic_or_bit_accumulate(self):
        dest = np.zeros(2, dtype=np.uint64)
        atomic_or(dest, np.array([0, 0, 1]),
                  np.array([1, 4, 2], dtype=np.uint64))
        assert dest.tolist() == [5, 2]

    def test_scatter_write_single_element_fast_path(self, rng):
        """Size-<=1 batches skip the shuffle but not the store: the rng
        stream must be untouched either way (documented fast path)."""
        probe = np.random.default_rng(99)
        expected_next = np.random.default_rng(99).integers(0, 1 << 30)
        dest = np.zeros(2, dtype=np.int64)
        scatter_write(dest, np.array([1]), np.array([7]), probe)
        scatter_write(dest, np.empty(0, dtype=np.int64),
                      np.empty(0, dtype=np.int64), probe)
        assert dest.tolist() == [0, 7]
        assert probe.integers(0, 1 << 30) == expected_next


class TestAtomicsEdgeCases:
    """Property tests for the batch-atomic edge cases (empty batches,
    all-duplicate contention, serialization determinism)."""

    EMPTY = np.empty(0, dtype=np.int64)

    def test_empty_batches_are_no_ops(self, rng):
        dest = np.array([3, 4], dtype=np.int64)
        scatter_write(dest, self.EMPTY, self.EMPTY, rng)
        atomic_add(dest, self.EMPTY, self.EMPTY)
        atomic_min(dest, self.EMPTY, self.EMPTY)
        atomic_max(dest, self.EMPTY, self.EMPTY)
        atomic_or(dest.astype(np.uint64), self.EMPTY,
                  self.EMPTY.astype(np.uint64))
        assert dest.tolist() == [3, 4]

    def test_fetch_add_empty_batch(self, rng):
        """Regression: ``csum[starts]`` used to IndexError on size 0."""
        dest = np.array([5], dtype=np.int64)
        old = fetch_add_serialized(dest, self.EMPTY, self.EMPTY, rng)
        assert old.size == 0
        assert dest[0] == 5

    def test_cas_empty_batch(self, rng):
        dest = np.array([-1], dtype=np.int64)
        ok = atomic_cas_batch(dest, self.EMPTY, -1, 9, rng)
        assert ok.size == 0
        assert dest[0] == -1

    @given(st.integers(1, 64), st.integers(0, 999))
    @settings(max_examples=40)
    def test_cas_all_duplicates_single_winner(self, n, seed):
        """A fully contended CAS batch commits exactly one lane."""
        dest = np.full(1, -1, dtype=np.int64)
        ok = atomic_cas_batch(dest, np.zeros(n, dtype=np.int64), -1, 7,
                              np.random.default_rng(seed))
        assert int(ok.sum()) == 1
        assert dest[0] == 7

    @given(st.integers(0, 999))
    @settings(max_examples=40)
    def test_cas_all_duplicates_wrong_expected(self, seed):
        dest = np.full(1, 5, dtype=np.int64)
        ok = atomic_cas_batch(dest, np.zeros(8, dtype=np.int64), -1, 7,
                              np.random.default_rng(seed))
        assert not ok.any()
        assert dest[0] == 5

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=40),
           st.integers(0, 999))
    @settings(max_examples=40)
    def test_fetch_add_serialized_deterministic(self, idx, seed):
        """Same seed, same batch => identical old-value assignment; and
        the old values at each slot partition ``[0, count)``."""
        idx = np.asarray(idx, dtype=np.int64)
        ones = np.ones(idx.size, dtype=np.int64)
        d1 = np.zeros(4, dtype=np.int64)
        d2 = np.zeros(4, dtype=np.int64)
        o1 = fetch_add_serialized(d1, idx, ones,
                                  np.random.default_rng(seed))
        o2 = fetch_add_serialized(d2, idx, ones,
                                  np.random.default_rng(seed))
        np.testing.assert_array_equal(o1, o2)
        np.testing.assert_array_equal(d1, d2)
        for slot in range(4):
            got = sorted(o1[idx == slot].tolist())
            assert got == list(range(len(got)))

    @given(st.integers(2, 128), st.integers(0, 999))
    @settings(max_examples=30)
    def test_scatter_write_all_duplicates_one_winner(self, n, seed):
        dest = np.zeros(1, dtype=np.int64)
        vals = np.arange(1, n + 1)
        scatter_write(dest, np.zeros(n, dtype=np.int64), vals,
                      np.random.default_rng(seed))
        assert int(dest[0]) in set(vals.tolist())


class TestMemory:
    def test_device_allocator_accounting(self):
        a = DeviceAllocator()
        arr = a.malloc((10,), np.int64)
        assert a.bytes_in_use == arr.nbytes
        a.free(arr)
        assert a.bytes_in_use == 0
        assert a.high_water == arr.nbytes

    def test_realloc_copies_and_grows(self):
        a = DeviceAllocator()
        arr = a.malloc((4,), np.int64, fill=3)
        out = a.realloc(arr, 10, fill=0)
        assert out.shape[0] == 10
        assert out[:4].tolist() == [3, 3, 3, 3]
        assert a.bytes_copied == arr.nbytes

    def test_realloc_noop_when_smaller(self):
        a = DeviceAllocator()
        arr = a.malloc((4,), np.int64)
        assert a.realloc(arr, 2) is arr

    def test_chunk_allocator_insert_dedup(self):
        ca = ChunkAllocator(chunk_size=4)
        lst = ca.new_list()
        assert ca.insert_many(lst, np.array([3, 1, 3, 2])) == 3
        assert ca.insert_many(lst, np.array([2, 5])) == 1
        assert sorted(lst.to_array().tolist()) == [1, 2, 3, 5]

    def test_chunk_spill(self):
        ca = ChunkAllocator(chunk_size=3)
        lst = ca.new_list()
        ca.insert_many(lst, np.arange(10))
        assert len(lst) == 10
        assert len(lst.chunks) >= 4 - 1
        assert lst.contains(7)
        assert not lst.contains(99)

    def test_chunks_individually_sorted(self):
        ca = ChunkAllocator(chunk_size=4)
        lst = ca.new_list()
        for vals in ([5, 1], [9, 0], [3, 7, 2]):
            ca.insert_many(lst, np.asarray(vals))
        for chunk, n in zip(lst.chunks, lst.counts):
            assert np.all(np.diff(chunk[:n]) > 0)

    def test_fragmentation(self):
        ca = ChunkAllocator(chunk_size=8)
        lst = ca.new_list()
        ca.insert_many(lst, np.arange(3))
        assert ca.internal_fragmentation == pytest.approx(5 / 8)

    def test_chunk_fault_mid_insert_counts_nothing(self):
        # 10 IDs need 3 fresh chunks; the 2nd grant faults.  The insert
        # is all-or-nothing: no chunk of the failed request is counted.
        ca = ChunkAllocator(chunk_size=4)
        lst = ca.new_list()
        plan = FaultRules.of(FaultRule("chunk_exhausted", at=(2,)))
        with plan.injector().activate(), pytest.raises(ChunkPoolExhausted):
            ca.insert_many(lst, np.arange(10))
        assert len(lst) == 0 and lst.chunks == []
        assert (ca.chunks_allocated, ca.slots_used) == (0, 0)
        assert ca.insert_many(lst, np.arange(10)) == 10
        assert (ca.chunks_allocated, ca.slots_used) == (3, 10)

    def test_host_chunk_fault_mid_insert_counts_nothing(self):
        ca = HostChunkAllocator(4, DeviceAllocator())
        lst = ca.new_list()
        plan = FaultRules.of(FaultRule("oom", at=(3,)))
        with plan.injector().activate(), pytest.raises(OutOfDeviceMemory):
            ca.insert_many(lst, np.arange(10))
        assert len(lst) == 0
        assert (ca.chunks_allocated, ca.slots_used) == (0, 0)

    def test_account_growth_matches_insert_many(self):
        # Degree-driven accounting equals what per-list inserts allocate.
        ca, ref = ChunkAllocator(chunk_size=3), ChunkAllocator(chunk_size=3)
        lists = [ref.new_list() for _ in range(3)]
        deg = np.zeros(3, dtype=np.int64)
        for grown in ([1, 0, 7], [2, 3, 0], [0, 1, 5]):
            grown = np.asarray(grown, dtype=np.int64)
            for v, g in enumerate(grown.tolist()):
                ref.insert_many(lists[v], np.arange(deg[v], deg[v] + g))
            ca.account_growth(deg, grown)
            deg += grown
            assert (ca.chunks_allocated, ca.slots_used) == \
                (ref.chunks_allocated, ref.slots_used)

    def test_account_growth_fault_counts_nothing(self):
        ca = ChunkAllocator(chunk_size=4)
        plan = FaultRules.of(FaultRule("chunk_exhausted", at=(3,)))
        with plan.injector().activate(), pytest.raises(ChunkPoolExhausted):
            ca.account_growth(np.array([0, 3]), np.array([10, 2]))
        assert (ca.chunks_allocated, ca.slots_used) == (0, 0)

    @given(st.lists(st.lists(st.integers(0, 50), max_size=10), max_size=12),
           st.integers(2, 16))
    @settings(max_examples=40)
    def test_chunklist_set_semantics(self, batches, chunk_size):
        ca = ChunkAllocator(chunk_size=chunk_size)
        lst = ca.new_list()
        ref: set = set()
        for batch in batches:
            added = ca.insert_many(lst, np.asarray(batch, dtype=np.int64))
            new = set(batch) - ref
            assert added == len(new)
            ref |= new
        assert sorted(lst.to_array().tolist()) == sorted(ref)

    def test_recycle_pool_roundtrip(self):
        p = RecyclePool()
        p.release(np.array([4, 7]))
        got = p.acquire(3)
        assert set(got.tolist()) == {4, 7}
        assert p.reused == 2

    def test_recycle_pool_allocate_mixes_fresh(self):
        p = RecyclePool()
        p.release(np.array([2]))
        slots, tail = p.allocate(3, tail_start=10)
        assert tail == 12
        assert set(slots.tolist()) == {2, 10, 11}


class TestBarriers:
    def test_ordering_of_costs(self):
        c_naive = NAIVE_ATOMIC.cycles(TESLA_C2070, 112, 256)
        c_hier = HIERARCHICAL.cycles(TESLA_C2070, 112, 256)
        c_fence = FENCE.cycles(TESLA_C2070, 112, 256)
        assert c_naive > c_hier > c_fence

    def test_naive_scales_with_threads(self):
        small = NAIVE_ATOMIC.cycles(TESLA_C2070, 10, 64)
        large = NAIVE_ATOMIC.cycles(TESLA_C2070, 10, 1024)
        assert large > small

    def test_atomics_counts(self):
        assert NAIVE_ATOMIC.atomics(4, 64) == 256
        assert HIERARCHICAL.atomics(4, 64) == 4
        assert FENCE.atomics(4, 64) == 0

    def test_index_roundtrip(self):
        assert FENCE.index == 0
        assert HIERARCHICAL.index == 1
        assert NAIVE_ATOMIC.index == 2


class TestSpmdLaunch:
    def test_plain_function(self, rng):
        out = np.zeros(8, dtype=np.int64)

        def body(tid, arr):
            arr[tid] = tid * 2

        phases = spmd_launch(8, body, out, rng=rng)
        assert phases == 1
        assert out.tolist() == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_generator_barriers(self, rng):
        trace = []

        def body(tid):
            trace.append(("a", tid))
            yield
            trace.append(("b", tid))

        phases = spmd_launch(3, body, rng=rng)
        assert phases == 2
        # all 'a' entries strictly before all 'b' entries
        kinds = [k for k, _ in trace]
        assert kinds.index("b") == 3

    def test_uneven_thread_lengths(self, rng):
        done = []

        def body(tid):
            for _ in range(tid):
                yield
            done.append(tid)

        spmd_launch(4, body, rng=rng)
        assert sorted(done) == [0, 1, 2, 3]

    def test_counter_records_phases(self, rng):
        c = OpCounter()

        def body(tid):
            yield
            yield

        spmd_launch(2, body, rng=rng, counter=c, name="k")
        assert c.kernel("k").barriers == 2

    def test_deadlock_guard(self, rng):
        def forever(tid):
            while True:
                yield

        with pytest.raises(RuntimeError):
            spmd_launch(1, forever, rng=rng, max_phases=10)


class TestCostModel:
    def test_zero_counter_is_free_serial(self):
        cm = CostModel()
        assert cm.serial_time(OpCounter()) == 0.0

    def test_gpu_charges_launches(self):
        cm = CostModel()
        c1, c2 = OpCounter(), OpCounter()
        c1.launch("k")
        c2.launch("k")
        c2.launch("k")
        assert cm.gpu_time(c2) > cm.gpu_time(c1)

    def test_cpu_scales_with_threads(self):
        cm = CostModel()
        c = OpCounter()
        c.launch("k", items=10_000_000,
                 work_per_thread=np.full(10_000_000, 1))
        assert cm.cpu_time(c, 48) < cm.cpu_time(c, 4)

    def test_serial_cheaper_than_one_thread_with_scheduler(self):
        cm = CostModel()
        c = OpCounter()
        c.launch("k", items=1000)
        assert cm.serial_time(c) <= cm.cpu_time(c, 1)

    def test_barrier_kind_scalar_honored(self):
        cm = CostModel()
        base = OpCounter()
        base.launch("k", barriers=100)
        fence = OpCounter()
        fence.launch("k", barriers=100)
        fence.scalars["barrier_kind"] = 0
        naive = OpCounter()
        naive.launch("k", barriers=100)
        naive.scalars["barrier_kind"] = 2
        assert cm.gpu_time(naive) > cm.gpu_time(fence)

    def test_fp_scale_halves_compute(self):
        cm = CostModel()
        a, b = OpCounter(), OpCounter()
        work = np.full(100_000, 100)
        a.launch("k", work_per_thread=work)
        b.launch("k", work_per_thread=work)
        b.scalars["fp_scale"] = 0.5
        assert cm.gpu_time(b) < cm.gpu_time(a)

    def test_critical_path_binds(self):
        cm = CostModel()
        spread, serial = OpCounter(), OpCounter()
        spread.launch("k", work_per_thread=np.full(10_000, 100))
        w = np.zeros(10_000, dtype=np.int64)
        w[0] = 1_000_000
        serial.launch("k", work_per_thread=w)
        assert cm.gpu_time(serial) > cm.gpu_time(spread)

    def test_startup_floor_multicore(self):
        cm = CostModel()
        c = OpCounter()
        c.launch("k", items=1)
        assert cm.cpu_time(c, 48) >= XEON_E7540.startup_cycles / XEON_E7540.clock_hz
        assert cm.cpu_time(c, 1) < 1e-3

    def test_times_bundle(self):
        cm = CostModel()
        c = OpCounter()
        c.launch("k", items=100)
        t = cm.times(c, c, c)
        assert t.gpu > 0 and t.cpu_parallel > 0 and t.serial > 0
        assert t.gpu_speedup_vs_serial == pytest.approx(t.serial / t.gpu)
