"""E-D1: regenerate the Section VIII-B deadlock matrix and compare it cell by cell."""

from __future__ import annotations

from repro.experiments.exp_pitfalls import run_deadlock


def test_bench_deadlock_matrix():
    report = run_deadlock()
    # Every row must match the paper's matrix exactly.
    assert all(r.measured == r.paper for r in report.rows)
