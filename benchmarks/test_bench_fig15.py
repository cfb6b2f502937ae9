"""E-F15: regenerate Fig 15 (reduction latency vs size) and check its claims."""

from __future__ import annotations

from repro.experiments.exp_reduction import run_fig15


def test_bench_fig15_reduction_latency_curves():
    report = run_fig15()
    bool_rows = [r for r in report.rows if r.unit == "bool"]
    assert bool_rows and all(r.measured == 1.0 for r in bool_rows)
    bw_rows = [r for r in report.rows if r.unit == "GB/s"]
    assert all(abs(r.rel_err) < 0.05 for r in bw_rows)
