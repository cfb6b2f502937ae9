"""E-T5: regenerate Table V (warp-reduce latency per method) and check its verdicts."""

from __future__ import annotations

from repro.experiments.exp_reduction import run_table5


def test_bench_table5_warp_reduce():
    report = run_table5()
    assert report.mean_rel_err < 0.05
    notes = {r.label: r.note for r in report.rows}
    assert "INCORRECT" in notes["V100 nosync"]
    assert "correct" == notes["V100 tile_shuffle"]
