"""E-T3: regenerate Table III (proxy bandwidth / concurrency) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_model import run_table3


def test_bench_table3_concurrency():
    report = run_table3()
    assert report.mean_rel_err < 0.03
    vals = {r.label: r.measured for r in report.rows}
    # One warp carries 32x the single-thread bandwidth (latency-bound).
    assert vals["V100 1_warp bandwidth"] / vals["V100 1_thread bandwidth"] > 30
