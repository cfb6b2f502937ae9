"""E-F16: regenerate Fig 16 (multi-GPU reduction throughput) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_reduction import run_fig16


def test_bench_fig16_multigpu_reduction():
    report = run_fig16()
    rows = {r.label: r for r in report.rows}
    assert rows["CPU-side >= mgrid throughout"].measured == 1.0
    assert rows["mgrid scaling factor at 8 GPUs"].measured > 6.5
    # The gap stays 'hard to notice' (a few percent).
    assert rows["throughput gap at 8 GPUs"].measured < 0.10
