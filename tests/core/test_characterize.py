"""Tests for the characterization sweeps (Table II, Figs 4/5/7/8 data)."""

from __future__ import annotations

import pytest

from repro.core.characterize import (
    block_sync_scan,
    grid_sync_heatmap,
    heatmap_cells,
    measure_shuffle_latency,
    measure_warp_sync_latency,
    measure_warp_sync_throughput_best,
    multigrid_sync_heatmap,
    table2_rows,
)
from repro.experiments.paper_data import FIG5_GRID_SYNC_US, TABLE2
from repro.sim.node import Node


class TestWarpLatencies:
    def test_tile_latency(self, spec):
        assert measure_warp_sync_latency(spec, "tile", 32) == pytest.approx(
            TABLE2[spec.name]["tile"]["latency"], abs=1.0
        )

    def test_coalesced_partial_slow_path_on_volta(self, v100):
        full = measure_warp_sync_latency(v100, "coalesced", 32)
        partial = measure_warp_sync_latency(v100, "coalesced", 16)
        assert full == pytest.approx(14.0, abs=1.0)
        assert partial == pytest.approx(108.0, abs=2.0)

    def test_tile_latency_independent_of_group_size(self, spec):
        # Paper: "the size of the group influences neither latency nor
        # throughput" for tile groups.
        lats = {measure_warp_sync_latency(spec, "tile", s) for s in (2, 8, 32)}
        assert max(lats) - min(lats) <= 1.0

    def test_shuffle_latencies(self, spec):
        assert measure_shuffle_latency(spec, "tile") == pytest.approx(
            TABLE2[spec.name]["shuffle_tile"]["latency"], abs=1.5
        )
        assert measure_shuffle_latency(spec, "coalesced") == pytest.approx(
            TABLE2[spec.name]["shuffle_coalesced"]["latency"], abs=1.5
        )


def _size_sweep(spec):
    """Section V-A's exhaustive group-size sweep through the Table II
    latency probe: tile sizes are the powers of two 1..32, coalesced
    sizes range 1..32."""
    return {
        "tile": {
            size: measure_warp_sync_latency(spec, "tile", size)
            for size in (1, 2, 4, 8, 16, 32)
        },
        "coalesced": {
            size: measure_warp_sync_latency(spec, "coalesced", size)
            for size in range(1, 33)
        },
    }


class TestSizeSweep:
    """Section V-A's exhaustive group-size study."""

    def test_tile_size_never_matters(self, spec):
        tile = _size_sweep(spec)["tile"]
        assert max(tile.values()) - min(tile.values()) <= 1.0

    def test_coalesced_size_matters_only_on_volta(self, v100, p100):
        v = _size_sweep(v100)["coalesced"]
        p = _size_sweep(p100)["coalesced"]
        # V100: sizes 1..31 share the slow path, 32 is fast.
        partials = {s: l for s, l in v.items() if s < 32}
        assert max(partials.values()) - min(partials.values()) <= 1.0
        assert v[32] < min(partials.values()) / 5
        # P100: flat across every size.
        assert max(p.values()) - min(p.values()) <= 1.0

    def test_best_coalesced_config_is_full_warp_on_volta(self, v100):
        v = _size_sweep(v100)["coalesced"]
        assert min(v, key=v.get) == 32


class TestTable2:
    def test_all_rows_within_tolerance(self, spec):
        rows = table2_rows(spec)
        for name, vals in rows.items():
            paper = TABLE2[spec.name][name]
            assert vals["latency"] == pytest.approx(paper["latency"], rel=0.10, abs=2.0), name
            assert vals["throughput"] == pytest.approx(paper["throughput"], rel=0.05), name

    def test_throughput_best_protocol_saturates(self, spec):
        best = measure_warp_sync_throughput_best(spec, "tile")
        single = measure_warp_sync_throughput_best(spec, "tile", warp_counts=(1,))
        assert best > single

    def test_best_over_no_configuration_rejected(self, spec):
        with pytest.raises(ValueError, match="warp_counts"):
            measure_warp_sync_throughput_best(spec, "tile", warp_counts=())


class TestFig4Scan:
    def test_scan_points_shape(self, spec):
        pts = block_sync_scan(spec, warp_counts=(1, 4, 16, 64, 256))
        assert [p.warps_per_sm for p in pts] == [1, 4, 16, 64, 256]

    def test_throughput_saturates_at_residency_limit(self, spec):
        pts = {p.warps_per_sm: p for p in block_sync_scan(spec)}
        sat = pts[spec.max_warps_per_sm].per_warp_throughput
        target = TABLE2[spec.name]["block_per_warp"]["throughput"]
        assert sat == pytest.approx(target, rel=0.05)
        # Oversubscribed points stay on the plateau.
        assert pts[1024].per_warp_throughput == pytest.approx(sat, rel=0.05)

    def test_latency_kinks_upward_past_limit(self, spec):
        pts = {p.warps_per_sm: p for p in block_sync_scan(spec)}
        assert pts[1024].latency_cycles > 4 * pts[64].latency_cycles

    def test_counts_above_block_limit_run_as_whole_blocks(self, spec):
        # 32 warps fill one block; 96 run as three such blocks.
        pts = block_sync_scan(spec, warp_counts=(1, 8, 32, 64, 96))
        assert [p.warps_per_sm for p in pts] == [1, 8, 32, 64, 96]
        assert [p.active_warps for p in pts] == [1, 8, 32, 64, 64]

    @pytest.mark.parametrize(
        "warp_counts",
        [(), (0,), (-4,), (40,), (8, 100), (2.0,)],
        ids=["empty", "zero", "negative", "partial-block", "later-count",
             "float"],
    )
    def test_counts_it_cannot_lay_out_rejected(self, spec, warp_counts):
        with pytest.raises(ValueError, match="warp_counts"):
            block_sync_scan(spec, warp_counts=warp_counts)


class TestHeatmaps:
    def test_cells_match_paper_grid(self, spec):
        assert set(heatmap_cells(spec)) == set(FIG5_GRID_SYNC_US[spec.name])

    def test_grid_heatmap_covers_all_cells(self, spec):
        hm = grid_sync_heatmap(spec)
        assert set(hm) == set(heatmap_cells(spec))
        assert all(v > 0 for v in hm.values())

    def test_multigrid_heatmap_two_gpus_slower_than_one(self, dgx1):
        node = Node(dgx1)
        one = multigrid_sync_heatmap(node, gpu_ids=range(1))
        two = multigrid_sync_heatmap(node, gpu_ids=range(2))
        assert all(two[c] > one[c] for c in one)
