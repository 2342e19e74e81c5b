"""Tests for worklists, addition/deletion strategies, adaptive configs,
layout optimization, divergence sorting, and the parallelism profiler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (AdaptiveConfig, CentralWorklist, ExplicitDeletion,
                        FeedbackAdaptiveConfig, FixedConfig, HostOnly,
                        KernelHost, KernelOnly, LocalWorklists,
                        MarkingDeletion, PreAllocation, RecycleDeletion,
                        bfs_permutation, divergence_gain, greedy_mis,
                        invert_permutation, layout_quality, partition_active,
                        profile_parallelism, swap_scan_permutation,
                        warp_efficiency)
from repro.core.csr import edges_to_csr
from repro.errors import OutOfDeviceMemory
from repro.vgpu.device import LaunchConfig


# --------------------------------------------------------------------- #
class TestCentralWorklist:
    def test_append_drain(self, rng):
        wl = CentralWorklist(16)
        wl.append(np.array([3, 1, 4]), rng)
        assert len(wl) == 3
        assert sorted(wl.drain().tolist()) == [1, 3, 4]
        assert len(wl) == 0

    def test_atomics_counted(self, rng):
        wl = CentralWorklist(4)
        wl.append(np.array([1, 2]), rng)
        wl.append(np.array([3]), rng)
        assert wl.atomic_ops == 3

    def test_growth(self, rng):
        wl = CentralWorklist(2)
        wl.append(np.arange(10), rng)
        assert sorted(wl.snapshot().tolist()) == list(range(10))

    def test_no_lost_items_under_concurrent_order(self):
        for seed in range(20):
            wl = CentralWorklist(64)
            wl.append(np.arange(40), np.random.default_rng(seed))
            assert sorted(wl.drain().tolist()) == list(range(40))


class TestLocalWorklists:
    def test_assign_partitions_all(self):
        wl = LocalWorklists.assign(10, 3)
        assert sorted(wl.all_items().tolist()) == list(range(10))
        assert wl.sizes().max() <= 4

    def test_push_take(self):
        wl = LocalWorklists(2)
        wl.push(0, [5, 6])
        wl.push(1, 7)
        assert wl.local(0).tolist() == [5, 6]
        assert wl.take_local(1).tolist() == [7]
        assert wl.local(1).size == 0

    def test_rebalance(self):
        wl = LocalWorklists(4)
        wl.push(0, list(range(20)))
        assert wl.imbalance() > 1.5
        wl.rebalance()
        assert wl.imbalance() <= 1.0 + 1e-9
        assert wl.total() == 20

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            LocalWorklists(0)

    def test_empty_assign(self):
        wl = LocalWorklists.assign(0, 4)
        assert wl.total() == 0
        assert wl.imbalance() == 1.0


# --------------------------------------------------------------------- #
class TestAdditionStrategies:
    def test_preallocation_within_bounds(self):
        s = PreAllocation(100)
        arr = s.allocate()
        assert arr.shape[0] == 100
        assert s.ensure(arr, 50) is arr

    def test_preallocation_overflow(self):
        s = PreAllocation(10)
        arr = s.allocate()
        with pytest.raises(OutOfDeviceMemory):
            s.ensure(arr, 11)

    def test_host_only_grows_with_factor(self):
        s = HostOnly(factor=2.0)
        arr = np.zeros(10, dtype=np.int64)
        out = s.ensure(arr, 11)
        assert out.shape[0] >= 20
        assert s.stats.reallocs == 1
        assert s.stats.bytes_copied == arr.nbytes

    def test_host_only_amortization(self):
        """A larger over-allocation factor means fewer reallocations."""
        def reallocs(factor):
            s = HostOnly(factor=factor)
            arr = np.zeros(8, dtype=np.int64)
            for need in range(9, 400):
                arr = s.ensure(arr, need)
            return s.stats.reallocs

        assert reallocs(2.0) < reallocs(1.01)

    def test_host_only_bad_factor(self):
        with pytest.raises(ValueError):
            HostOnly(factor=0.5)

    def test_kernel_host_cheaper_transfer(self):
        h = HostOnly(factor=1.5)
        k = KernelHost(factor=1.5)
        a1 = np.zeros(100, dtype=np.int64)
        a2 = np.zeros(100, dtype=np.int64)
        h.ensure(a1, 50)
        k.ensure(a2, 50)
        assert k.stats.host_words < h.stats.host_words

    def test_kernel_only_is_chunked(self):
        s = KernelOnly(chunk_size=16)
        with pytest.raises(TypeError):
            s.ensure(np.zeros(4), 8)
        lst = s.chunks.new_list()
        s.chunks.insert_many(lst, np.arange(20))
        assert len(lst) == 20


class TestDeletionStrategies:
    def test_marking(self):
        d = MarkingDeletion(10)
        d.delete([2, 5])
        assert d.num_deleted == 2
        assert d.is_deleted(2)
        assert d.live_ids().tolist() == [0, 1, 3, 4, 6, 7, 8, 9]

    def test_marking_idempotent(self):
        d = MarkingDeletion(4)
        d.delete(1)
        d.delete(1)
        assert d.num_deleted == 1

    def test_marking_grow(self):
        d = MarkingDeletion(2)
        d.grow(5)
        assert d.deleted.size == 5
        assert not d.is_deleted(4)

    def test_explicit_compaction(self):
        d = ExplicitDeletion(10, compact_threshold=0.3)
        d.delete(list(range(6)))
        assert d.should_compact()
        n_live, old_to_new = d.compact()
        assert n_live == 4
        assert old_to_new[:6].tolist() == [-1] * 6
        assert old_to_new[6:].tolist() == [0, 1, 2, 3]
        assert d.compactions == 1
        assert not d.should_compact()

    def test_recycle_reuses_slots(self):
        d = RecycleDeletion(10)
        d.delete([3, 4])
        slots, tail = d.allocate(3, tail_start=10)
        assert tail == 11
        assert {3, 4}.issubset(set(slots.tolist()))
        assert not d.is_deleted(3)

    def test_recycle_fresh_only(self):
        d = RecycleDeletion(5)
        slots, tail = d.allocate(2, tail_start=5)
        assert slots.tolist() == [5, 6]
        assert tail == 7


# --------------------------------------------------------------------- #
class TestAdaptiveConfigs:
    def test_fixed(self):
        f = FixedConfig(LaunchConfig(4, 128))
        assert f.next(0).threads_per_block == 128
        assert f.next(9).threads_per_block == 128

    def test_paper_doubling(self):
        a = AdaptiveConfig(initial_tpb=64, doubling_rounds=3)
        tpbs = [a.next(i).threads_per_block for i in range(6)]
        assert tpbs == [64, 128, 256, 512, 512, 512]

    def test_doubling_caps_at_device_limit(self):
        a = AdaptiveConfig(initial_tpb=512, doubling_rounds=3)
        assert a.next(3).threads_per_block == 1024

    def test_feedback_grows_when_quiet(self):
        f = FeedbackAdaptiveConfig(initial_tpb=64)
        t0 = f.next(0).threads_per_block
        t1 = f.next(1, abort_ratio=0.0).threads_per_block
        assert t1 == 2 * t0

    def test_feedback_shrinks_on_conflicts(self):
        f = FeedbackAdaptiveConfig(initial_tpb=256)
        f.next(0)
        t1 = f.next(1, abort_ratio=0.9).threads_per_block
        assert t1 == 128

    def test_feedback_clamps_to_pending(self):
        f = FeedbackAdaptiveConfig(initial_tpb=1024, blocks=10)
        cfg = f.next(0, pending=50)
        assert cfg.threads_per_block * cfg.blocks <= 10 * 1024
        assert cfg.threads_per_block <= 32  # warp-granular clamp

    def test_feedback_never_below_warp(self):
        f = FeedbackAdaptiveConfig(initial_tpb=32)
        f.next(0)
        cfg = f.next(1, abort_ratio=1.0)
        assert cfg.threads_per_block >= 32


# --------------------------------------------------------------------- #
class TestFeedbackTrajectories:
    """Grow/shrink decisions across whole abort-ratio trajectories and
    clamping at the device limits (§7.4's feedback extension)."""

    def test_quiet_storm_quiet_trajectory(self):
        f = FeedbackAdaptiveConfig(initial_tpb=64, low_water=0.1,
                                   high_water=0.4)
        ratios = [0.0, 0.02, 0.05, 0.9, 0.8, 0.0, 0.0]
        tpbs = [f.next(i, abort_ratio=r).threads_per_block
                for i, r in enumerate(ratios)]
        # quiet rounds double, the conflict storm halves, recovery doubles
        assert tpbs == [64, 128, 256, 128, 64, 128, 256]

    def test_sustained_quiet_clamps_at_device_limit(self):
        f = FeedbackAdaptiveConfig(initial_tpb=64)
        limit = f.spec.max_threads_per_block
        tpbs = [f.next(i, abort_ratio=0.0).threads_per_block
                for i in range(12)]
        assert max(tpbs) == limit
        assert tpbs[-1] == tpbs[-2] == limit    # stays pinned, no wrap
        assert all(t <= limit for t in tpbs)

    def test_sustained_conflict_floors_at_warp_size(self):
        f = FeedbackAdaptiveConfig(initial_tpb=512)
        warp = f.spec.warp_size
        tpbs = [f.next(i, abort_ratio=1.0).threads_per_block
                for i in range(10)]
        assert tpbs[-1] == warp
        assert all(t >= warp for t in tpbs)
        # monotone non-increasing under constant pressure
        assert all(a >= b for a, b in zip(tpbs, tpbs[1:]))

    def test_mid_band_holds_geometry_steady(self):
        f = FeedbackAdaptiveConfig(initial_tpb=128, low_water=0.1,
                                   high_water=0.4)
        tpbs = [f.next(i, abort_ratio=0.25).threads_per_block
                for i in range(5)]
        assert tpbs == [128] * 5

    def test_pending_clamp_does_not_corrupt_internal_state(self):
        f = FeedbackAdaptiveConfig(initial_tpb=256, blocks=10)
        # a tiny pending round clamps the *launch*, not the policy state
        cfg = f.next(0, pending=15)
        assert cfg.threads_per_block == f.spec.warp_size
        # next quiet round grows from 256, not from the clamped value
        cfg = f.next(1, abort_ratio=0.0)
        assert cfg.threads_per_block == 512

    def test_boundary_ratios_are_inclusive_band(self):
        f = FeedbackAdaptiveConfig(initial_tpb=128, low_water=0.1,
                                   high_water=0.4)
        f.next(0)
        # exactly at the watermarks: neither grow nor shrink
        assert f.next(1, abort_ratio=0.1).threads_per_block == 128
        assert f.next(2, abort_ratio=0.4).threads_per_block == 128

    @given(ratios=st.lists(st.floats(0.0, 1.0), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_any_trajectory_stays_within_device_envelope(self, ratios):
        f = FeedbackAdaptiveConfig(initial_tpb=64)
        for i, r in enumerate(ratios):
            cfg = f.next(i, abort_ratio=r)
            assert f.spec.warp_size <= cfg.threads_per_block \
                <= f.spec.max_threads_per_block
            assert cfg.threads_per_block % f.spec.warp_size == 0


# --------------------------------------------------------------------- #
class TestAdaptiveDictEncoding:
    """The canonical dict encoding repro.tune stores under "adaptive"."""

    def test_round_trip_all_kinds(self):
        from repro.core import adaptive_from_dict
        policies = (FixedConfig(LaunchConfig(56, 256)),
                    AdaptiveConfig(initial_tpb=128, doubling_rounds=2,
                                   blocks=56),
                    FeedbackAdaptiveConfig(initial_tpb=64, blocks=112,
                                           low_water=0.2, high_water=0.5))
        for policy in policies:
            again = adaptive_from_dict(policy.to_dict())
            assert again.to_dict() == policy.to_dict()
            assert type(again) is type(policy)

    def test_rebuilt_policy_behaves_identically(self):
        from repro.core import adaptive_from_dict
        a = AdaptiveConfig(initial_tpb=64, doubling_rounds=3)
        b = adaptive_from_dict(a.to_dict())
        for i in range(6):
            assert a.next(i) == b.next(i)

    def test_unknown_kind_raises(self):
        from repro.core import adaptive_from_dict
        with pytest.raises(ValueError, match="unknown adaptive kind"):
            adaptive_from_dict({"kind": "oracle"})


# --------------------------------------------------------------------- #
def ring_graph(n):
    src = np.arange(n)
    return edges_to_csr(n, np.concatenate([src, (src + 1) % n]),
                        np.concatenate([(src + 1) % n, src]))


class TestLayout:
    def test_bfs_permutation_valid(self):
        g = ring_graph(10)
        perm = bfs_permutation(g)
        assert sorted(perm.tolist()) == list(range(10))

    def test_swap_scan_valid_permutation(self):
        g = ring_graph(12)
        perm = swap_scan_permutation(g)
        assert sorted(perm.tolist()) == list(range(12))

    def test_invert(self):
        perm = np.array([2, 0, 1])
        inv = invert_permutation(perm)
        assert inv[perm].tolist() == [0, 1, 2]

    def test_quality_improves_on_shuffled_ring(self, rng):
        n = 200
        g = ring_graph(n)
        shuffled = g.with_layout(rng.permutation(n))
        before = layout_quality(shuffled)
        after_bfs = layout_quality(shuffled, bfs_permutation(shuffled))
        after_swap = layout_quality(shuffled, swap_scan_permutation(shuffled))
        assert after_bfs < before
        assert after_swap < before

    def test_quality_of_identity_ring(self):
        g = ring_graph(50)
        # neighbors are one apart except the wraparound edge
        assert layout_quality(g) < 3.0

    def test_disconnected_components_covered(self):
        g = edges_to_csr(6, np.array([0, 1, 3, 4]), np.array([1, 0, 4, 3]))
        perm = bfs_permutation(g)
        assert sorted(perm.tolist()) == list(range(6))

    @given(st.integers(4, 40), st.integers(0, 99))
    @settings(max_examples=30)
    def test_swap_scan_always_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, 2 * n)
        dst = rng.integers(0, n, 2 * n)
        g = edges_to_csr(n, src, dst)
        perm = swap_scan_permutation(g)
        assert sorted(perm.tolist()) == list(range(n))


class TestDivergence:
    def test_partition_active_stable(self):
        mask = np.array([False, True, False, True, True])
        assert partition_active(mask).tolist() == [1, 3, 4, 0, 2]

    def test_warp_efficiency_range(self):
        assert warp_efficiency(np.full(32, 3)) == pytest.approx(1.0)
        w = np.zeros(32)
        w[0] = 10
        assert warp_efficiency(w) == pytest.approx(10 / 320)

    def test_sorting_helps_scattered_work(self, rng):
        n = 1024
        mask = rng.random(n) < 0.1
        work = np.where(mask, 20, 0)
        before, after = divergence_gain(work, mask)
        assert after >= before

    def test_sorting_noop_when_uniform(self):
        mask = np.ones(64, dtype=bool)
        before, after = divergence_gain(np.full(64, 5), mask)
        assert before == after == pytest.approx(1.0)


# --------------------------------------------------------------------- #
class TestProfiling:
    def test_greedy_mis_respects_conflicts(self, rng):
        hood = {0: [10, 11], 1: [11, 12], 2: [13]}
        sel = greedy_mis([0, 1, 2], lambda i: hood[i], rng)
        assert 2 in sel
        assert not (0 in sel and 1 in sel)

    def test_profile_simple_chain(self, rng):
        # items 0..4, each conflicts with its successor through a shared
        # element; executing an item deactivates it.
        state = {i: True for i in range(5)}

        def hood(i):
            return [i, i + 1] if state[i] else []

        def execute(batch):
            for i in batch:
                state[i] = False
            return []

        prof = profile_parallelism(list(range(5)), hood, execute, rng)
        assert prof.total_work == 5
        assert prof.peak <= 3  # at most alternate items per step
        assert prof.num_steps >= 2

    def test_profile_records_new_work(self, rng):
        state = {0: True}
        spawned = {"done": False}

        def hood(i):
            return [i] if state.get(i, False) else []

        def execute(batch):
            for i in batch:
                state[i] = False
            if not spawned["done"]:
                spawned["done"] = True
                state[99] = True
                return [99]
            return []

        prof = profile_parallelism([0], hood, execute, rng)
        assert prof.total_work == 2

    def test_profile_max_steps_guard(self, rng):
        def hood(i):
            return [0]

        def execute(batch):
            return batch  # never terminates

        with pytest.raises(RuntimeError):
            profile_parallelism([0], hood, execute, rng, max_steps=5)

    def test_summary_strings(self, rng):
        from repro.core.profiling import ParallelismProfile
        p = ParallelismProfile(steps=[2, 5, 1])
        assert p.peak == 5
        assert p.peak_step == 1
        assert "3 steps" in p.summary()
