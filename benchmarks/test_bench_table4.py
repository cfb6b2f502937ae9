"""E-T4: regenerate Table IV (switching-point predictions) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_model import run_table4


def test_bench_table4_switching_points():
    report = run_table4()
    assert report.mean_rel_err < 0.03
    vals = {r.label: r.measured for r in report.rows}
    # P100's heavy block sync pushes its 1024-thread switch ~3.5x higher.
    assert vals["P100 block1024 N_large"] > 3 * vals["V100 block1024 N_large"]
