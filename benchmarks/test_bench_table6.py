"""E-T6: regenerate Table VI (reduction bandwidth) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_reduction import run_table6


def test_bench_table6_reduction_bandwidth():
    report = run_table6()
    assert report.mean_rel_err < 0.03
    vals = {r.label: r.measured for r in report.rows}
    # CUB's Pascal deficit: ~50 GB/s behind the implicit variant.
    assert vals["P100 implicit"] - vals["P100 cub"] > 30.0
    assert vals["V100 implicit"] - vals["V100 cub"] < 30.0
