"""E-F5: regenerate the Fig 5 grid-sync heat-maps and check their shape."""

from __future__ import annotations

from repro.experiments.exp_sync import run_fig5


def test_bench_fig5_grid_sync_heatmaps():
    report = run_fig5()
    assert report.mean_rel_err < 0.10
    vals = {r.label: r.measured for r in report.rows}
    # Latency is dominated by blocks/SM: 32x blocks ~ >10x latency.
    assert vals["V100 (32 blk/SM, 32 thr)"] > 10 * vals["V100 (1 blk/SM, 32 thr)"]
