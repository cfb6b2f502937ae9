"""E-V1: the Section IX-D measurement-method cross-validation."""

from __future__ import annotations

from repro.experiments.exp_model import run_validation


def test_bench_validation_methods_agree():
    report = run_validation()
    fadd_rows = [r for r in report.rows if "fadd" in r.label]
    assert all(abs(r.rel_err) < 0.10 for r in fadd_rows)
