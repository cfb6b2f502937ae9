"""E-T1: regenerate Table I (launch overhead / null latency) and check its order."""

from __future__ import annotations

from repro.experiments.exp_launch import run_table1


def test_bench_table1_launch_overheads():
    report = run_table1()
    assert report.mean_rel_err < 0.05
    # Ordering invariant: traditional <= cooperative < multi-device.
    vals = {r.label: r.measured for r in report.rows}
    assert (
        vals["traditional total latency"]
        < vals["cooperative total latency"]
        < vals["multi_device total latency"]
    )
