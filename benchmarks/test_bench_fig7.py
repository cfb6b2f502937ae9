"""E-F7: regenerate Fig 7 (multi-grid sync, dual P100 / PCIe) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_sync import run_fig7


def test_bench_fig7_multigrid_p100():
    report = run_fig7()
    assert report.mean_rel_err < 0.10
    vals = {r.label: r.measured for r in report.rows}
    # Crossing PCIe adds ~6 us at the smallest configuration.
    assert vals["P100 x2 (1 blk/SM, 32 thr)"] - vals["P100 x1 (1 blk/SM, 32 thr)"] > 4.0
