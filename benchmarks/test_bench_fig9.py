"""E-F9: regenerate Fig 9 (barrier methods across the DGX-1) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_launch import run_fig9
from repro.experiments.scenario import Scenario


def test_bench_fig9_multi_gpu_barriers():
    report = run_fig9(Scenario(gpu_counts=(1, 2, 4, 5, 6, 8)))
    assert report.mean_rel_err < 0.08
    vals = {r.label: r.measured for r in report.rows}
    # Multi-device launch overhead explodes with GPU count while the
    # CPU-side barrier stays flat — the paper's central Fig 9 contrast.
    assert vals["multi_device_launch_overhead @ 8 GPU"] > 5 * vals["cpu_side_barrier @ 8 GPU"]
