"""Tests for the device model and grid-barrier protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.paper_data import FIG5_GRID_SYNC_US
from repro.sim.device import grid_sync_latency_ns
from repro.sim.engine import DeadlockError
from repro.sync import GridGroup


def _grid_sync(spec, b, t, **kw):
    """Run one grid-sync simulation through the repro.sync scope."""
    sim_kw = {k: kw.pop(k) for k in ("n_syncs", "participating_blocks") if k in kw}
    return GridGroup(spec, b, t, **kw).simulate(**sim_kw)


class TestGridSyncClosedForm:
    def test_matches_simulation(self, spec):
        for b, t in ((1, 32), (2, 256), (8, 64)):
            cf = grid_sync_latency_ns(spec, b, t)
            sim = _grid_sync(spec, b, t).latency_per_sync_ns
            assert sim == pytest.approx(cf, rel=0.01)

    def test_rejects_non_coresident_grid(self, spec):
        with pytest.raises(ValueError, match="co-resident"):
            grid_sync_latency_ns(spec, 4, 1024)

    def test_latency_tracks_blocks_more_than_threads(self, spec):
        # Paper: "more related to the grid dimension than the block dim".
        base = grid_sync_latency_ns(spec, 1, 32)
        more_blocks = grid_sync_latency_ns(spec, 8, 32)
        more_threads = grid_sync_latency_ns(spec, 1, 256)
        assert (more_blocks - base) > 4 * (more_threads - base)


class TestGridSyncSimulation:
    def test_full_heatmap_within_tolerance(self, spec):
        errs = []
        for (b, t), paper in FIG5_GRID_SYNC_US[spec.name].items():
            sim = _grid_sync(spec, b, t).latency_per_sync_us
            errs.append(abs(sim - paper) / paper)
        assert float(np.mean(errs)) < 0.08
        assert float(np.max(errs)) < 0.20

    def test_repeated_syncs_amortize_consistently(self, spec):
        one = _grid_sync(spec, 2, 128, n_syncs=1).latency_per_sync_ns
        many = _grid_sync(spec, 2, 128, n_syncs=5).latency_per_sync_ns
        assert many == pytest.approx(one, rel=0.05)

    def test_partial_participation_deadlocks(self, spec):
        with pytest.raises(DeadlockError):
            _grid_sync(
                spec, 1, 64, participating_blocks=spec.sm_count - 1
            )

    def test_single_missing_block_deadlocks(self, spec):
        with pytest.raises(DeadlockError):
            _grid_sync(
                spec, 2, 64, participating_blocks=2 * spec.sm_count - 1
            )

    def test_full_participation_completes(self, spec):
        r = _grid_sync(spec, 1, 64, participating_blocks=spec.sm_count)
        assert r.total_ns > 0

    def test_invalid_participation_rejected(self, spec):
        with pytest.raises(ValueError):
            _grid_sync(spec, 1, 64, participating_blocks=0)
        with pytest.raises(ValueError):
            _grid_sync(spec, 1, 64, participating_blocks=10**6)

    def test_oversized_cooperative_grid_rejected(self, spec):
        with pytest.raises(ValueError, match="co-reside"):
            _grid_sync(spec, 3, 1024)

    def test_sm_count_override_scales_blocks(self, spec):
        small = _grid_sync(spec, 1, 32, sm_count=4)
        assert small.total_blocks == 4
        full = _grid_sync(spec, 1, 32)
        assert small.latency_per_sync_ns < full.latency_per_sync_ns

    def test_result_metadata(self, spec):
        r = _grid_sync(spec, 2, 128)
        assert r.total_blocks == 2 * spec.sm_count
        assert r.warps_per_sm == 8
        assert r.latency_per_sync_us == pytest.approx(r.latency_per_sync_ns / 1e3)
