"""Tests for SM-level models: block barriers and warp-sync pipelines."""

from __future__ import annotations

import pytest

from repro.sim.sm import (
    block_sync_latency_cycles,
    simulate_block_sync,
    simulate_warp_sync_throughput,
)


class TestBlockSyncLatencyModel:
    def test_single_warp_latency_matches_table2(self, spec):
        expected = {"V100": 22.0, "P100": 218.0}[spec.name]
        assert block_sync_latency_cycles(spec, 1) == pytest.approx(expected, rel=0.1)

    def test_table4_sync_latency_for_1024_threads(self, spec):
        # 5 syncs of a 32-warp block: 420 cy (V100) / 2135 cy (P100).
        expected = {"V100": 420.0, "P100": 2135.0}[spec.name]
        assert 5 * block_sync_latency_cycles(spec, 32) == pytest.approx(
            expected, rel=0.02
        )

    def test_latency_monotone_in_warps(self, spec):
        lats = [block_sync_latency_cycles(spec, w) for w in (1, 4, 16, 32)]
        assert lats == sorted(lats)

    def test_zero_warps_rejected(self, spec):
        with pytest.raises(ValueError):
            block_sync_latency_cycles(spec, 0)


class TestBlockSyncSimulation:
    def test_single_block_is_latency_bound(self, spec):
        r = simulate_block_sync(spec, warps_per_block=1, n_blocks=1, repeats=4)
        assert r.latency_per_sync_cycles == pytest.approx(
            block_sync_latency_cycles(spec, 1), rel=0.05
        )

    def test_throughput_saturates_at_table2_value(self, spec):
        target = {"V100": 0.475, "P100": 0.091}[spec.name]
        r = simulate_block_sync(spec, warps_per_block=16, n_blocks=4, repeats=8)
        assert r.per_warp_throughput == pytest.approx(target, rel=0.03)

    def test_throughput_plateau_independent_of_partition(self, spec):
        # 64 warps/SM as 2x32 or 8x8 blocks: same barrier-unit bandwidth.
        a = simulate_block_sync(spec, 32, 2, repeats=8).per_warp_throughput
        b = simulate_block_sync(spec, 8, 8, repeats=8).per_warp_throughput
        assert a == pytest.approx(b, rel=0.05)

    def test_oversubscription_time_shares(self, spec):
        resident = simulate_block_sync(spec, 32, 2, repeats=4)
        oversub = simulate_block_sync(spec, 32, 8, repeats=4)
        # 4x the blocks at the same residency: ~4x the wall time.
        assert oversub.total_ns == pytest.approx(4 * resident.total_ns, rel=0.1)

    def test_oversubscription_keeps_plateau_throughput(self, spec):
        oversub = simulate_block_sync(spec, 32, 8, repeats=4)
        target = {"V100": 0.475, "P100": 0.091}[spec.name]
        assert oversub.per_warp_throughput == pytest.approx(target, rel=0.1)

    def test_result_bookkeeping(self, spec):
        r = simulate_block_sync(spec, warps_per_block=4, n_blocks=3, repeats=2)
        assert r.total_warps == 12
        assert r.resident_blocks == 3
        assert r.active_warps == 12

    def test_invalid_arguments(self, spec):
        with pytest.raises(ValueError):
            simulate_block_sync(spec, 0, 1)
        with pytest.raises(ValueError):
            simulate_block_sync(spec, 1, 0)
        with pytest.raises(ValueError):
            simulate_block_sync(spec, 1, 1, repeats=0)
        with pytest.raises(ValueError):
            simulate_block_sync(spec, 64, 1)  # 2048-thread block


class TestWarpSyncThroughput:
    @pytest.mark.parametrize(
        "kind,field",
        [
            ("tile", "tile_throughput"),
            ("coalesced", "coalesced_full_throughput"),
            ("shuffle_tile", "shuffle_tile_throughput"),
            ("shuffle_coalesced", "shuffle_coalesced_throughput"),
        ],
    )
    def test_saturated_throughput_matches_table2(self, spec, kind, field):
        r = simulate_warp_sync_throughput(spec, kind, 32, n_warps=64, repeats=64)
        assert r.throughput_ops_per_cycle == pytest.approx(
            getattr(spec.warp_sync, field), rel=0.02
        )

    def test_partial_coalesced_uses_slow_pipeline(self, v100):
        r = simulate_warp_sync_throughput(v100, "coalesced", 16, n_warps=64, repeats=64)
        assert r.throughput_ops_per_cycle == pytest.approx(0.167, rel=0.03)

    def test_single_warp_is_latency_bound(self, v100):
        r = simulate_warp_sync_throughput(v100, "tile", 32, n_warps=1, repeats=64)
        # One warp can at best retire 1/latency ops per cycle.
        assert r.throughput_ops_per_cycle <= 1.0 / v100.warp_sync.tile_latency * 1.05

    def test_throughput_rises_with_warp_count(self, spec):
        thrs = [
            simulate_warp_sync_throughput(spec, "tile", 32, n_warps=n, repeats=32)
            .throughput_ops_per_cycle
            for n in (1, 4, 16, 64)
        ]
        assert all(a <= b * 1.01 for a, b in zip(thrs, thrs[1:]))

    def test_unknown_kind_rejected(self, spec):
        with pytest.raises(ValueError):
            simulate_warp_sync_throughput(spec, "voodoo", 32)

    def test_invalid_counts_rejected(self, spec):
        with pytest.raises(ValueError):
            simulate_warp_sync_throughput(spec, "tile", 32, n_warps=0)

    @pytest.mark.parametrize("group_size", [0, -3, 33, 1000])
    @pytest.mark.parametrize("kind", ["tile", "coalesced"])
    def test_group_size_outside_the_warp_rejected(self, spec, kind, group_size):
        with pytest.raises(ValueError, match="group_size"):
            simulate_warp_sync_throughput(spec, kind, group_size)
