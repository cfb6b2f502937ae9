"""E-F4: regenerate Fig 4 (block sync scaling curves) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_sync import run_fig4


def test_bench_fig4_block_sync_scaling():
    report = run_fig4()
    assert report.mean_rel_err < 0.05
    vals = {r.label: r.measured for r in report.rows}
    # The V100/P100 plateau gap (0.475 vs 0.091 warp-sync/cycle).
    assert (
        vals["V100 saturated per-warp throughput"]
        > 4 * vals["P100 saturated per-warp throughput"]
    )
