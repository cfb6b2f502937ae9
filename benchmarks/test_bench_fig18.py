"""E-F18: regenerate Fig 18 (warp-barrier blocking traces) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_pitfalls import run_fig18


def test_bench_fig18_blocking_traces():
    report = run_fig18()
    rows = {r.label: r.measured for r in report.rows}
    assert rows["V100 barrier blocks all threads"] == 1.0
    assert rows["P100 barrier blocks all threads"] == 0.0
    # Staircase spans on the Fig 18 scale.
    assert abs(rows["V100 start staircase span"] - 14000) / 14000 < 0.10
    assert abs(rows["P100 start staircase span"] - 9000) / 9000 < 0.10
