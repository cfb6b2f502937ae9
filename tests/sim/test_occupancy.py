"""Tests for the CUDA occupancy calculator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.arch import P100, V100
from repro.sim.occupancy import blocks_per_sm, max_cooperative_blocks
from repro.sim.sm import simulate_block_sync


class TestBlocksPerSM:
    def test_small_blocks_limited_by_block_count(self, spec):
        occ = blocks_per_sm(spec, 32)
        assert occ.blocks_per_sm == spec.max_blocks_per_sm
        assert occ.limiting_factor == "blocks"

    def test_1024_thread_blocks_limited_by_threads(self, spec):
        occ = blocks_per_sm(spec, 1024)
        assert occ.blocks_per_sm == 2  # 2048 threads/SM limit
        assert occ.active_warps == 64

    def test_warps_never_exceed_limit(self, spec):
        for t in (32, 64, 96, 128, 256, 512, 777, 1024):
            occ = blocks_per_sm(spec, t)
            assert occ.active_warps <= spec.max_warps_per_sm
            assert occ.blocks_per_sm * t <= spec.max_threads_per_sm or (
                occ.warps_per_block * 32 > t  # rounding up partial warps
            )

    def test_shared_memory_limits(self, v100):
        occ = blocks_per_sm(v100, 128, shared_mem_per_block=48 * 1024)
        assert occ.limiting_factor == "shared_mem"
        assert occ.blocks_per_sm == 2

    def test_partial_warp_rounds_up(self, spec):
        occ = blocks_per_sm(spec, 33)
        assert occ.warps_per_block == 2

    def test_zero_threads_rejected(self, spec):
        with pytest.raises(ValueError):
            blocks_per_sm(spec, 0)

    def test_oversized_block_rejected(self, spec):
        with pytest.raises(ValueError, match="exceeds"):
            blocks_per_sm(spec, 2048)

    def test_oversized_shared_rejected(self, spec):
        with pytest.raises(ValueError, match="shared"):
            blocks_per_sm(spec, 32, shared_mem_per_block=10**9)

    @given(st.integers(min_value=1, max_value=1024))
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_for_any_block_size(self, threads):
        for spec in (V100, P100):
            occ = blocks_per_sm(spec, threads)
            assert occ.blocks_per_sm >= 1
            assert occ.active_warps <= spec.max_warps_per_sm
            assert occ.blocks_per_sm <= spec.max_blocks_per_sm
            assert occ.active_threads <= spec.max_threads_per_sm + 31  # warp rounding


class TestCooperativeLimit:
    def test_limit_is_occupancy_times_sms(self, spec):
        assert max_cooperative_blocks(spec, 1024) == 2 * spec.sm_count

    def test_fig5_blank_cells_rejected(self, spec):
        # (4 blocks/SM, 1024 threads) exceeds 2048 threads/SM: blank in Fig 5.
        assert max_cooperative_blocks(spec, 1024) < 4 * spec.sm_count

    def test_fig5_populated_cells_accepted(self, spec):
        # Every populated Fig 5 cell satisfies blocks*threads <= 2048.
        from repro.experiments.paper_data import FIG5_GRID_SYNC_US

        for (b, t) in FIG5_GRID_SYNC_US[spec.name]:
            assert b * spec.sm_count <= max_cooperative_blocks(spec, t)


class TestActiveWarps:
    """The residency clamp behind Fig 4's "active" column."""

    def test_clamped_at_residency(self, spec):
        run = simulate_block_sync(spec, warps_per_block=32, n_blocks=10)
        assert run.active_warps == 64

    def test_below_residency_counts_all(self, spec):
        run = simulate_block_sync(spec, warps_per_block=8, n_blocks=2)
        assert run.active_warps == 16
