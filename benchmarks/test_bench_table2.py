"""E-T2: regenerate Table II (warp-level sync characteristics) and check its shape."""

from __future__ import annotations

from repro.experiments.exp_sync import run_table2


def test_bench_table2_warp_sync():
    report = run_table2()
    assert report.mean_rel_err < 0.05
    vals = {r.label: r.measured for r in report.rows}
    # V100's partial-coalesced slow path and P100's fence-only warp "sync".
    assert vals["V100 coalesced_partial latency"] > 5 * vals["V100 tile latency"]
    assert vals["P100 tile latency"] <= 2.0
