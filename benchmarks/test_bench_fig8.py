"""E-F8: regenerate Fig 8 (multi-grid sync on the DGX-1) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_sync import run_fig8


def test_bench_fig8_multigrid_dgx1():
    report = run_fig8()
    assert report.mean_rel_err < 0.10
    vals = {r.label: r.measured for r in report.rows}
    # The cube-mesh plateaus: 2 and 5 GPUs close; 6 GPUs jumps by >10 us.
    assert abs(vals["V100 x5 (1 blk/SM, 32 thr)"] - vals["V100 x2 (1 blk/SM, 32 thr)"]) < 2.0
    assert vals["V100 x6 (1 blk/SM, 32 thr)"] - vals["V100 x5 (1 blk/SM, 32 thr)"] > 10.0
