"""Sweep-service bench (the PR-10 trajectory artifact).

Times the **warm-cache sweep latency** of the layered execution service
and, with ``--bench-json``, records it: a sweep whose every point is a
cache hit should be an I/O-bound skim of JSON entries, a couple of
milliseconds for the standard registry points; this is the number that
makes ``--resume`` of a mostly-finished sweep instant.

CI runs this module with ``--bench-json=BENCH_pr10.json`` and uploads
the file, so sweep-dispatch overhead has a machine-readable history.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_timing
from repro.experiments.registry import get_spec
from repro.experiments.service import SweepService


def _points():
    """The standard smoke points: every default scenario of two tables."""
    pts = []
    for exp_id in ("table4", "table5"):
        pts.extend(
            (exp_id, scen) for scen in get_spec(exp_id).default_scenarios
        )
    return pts


@pytest.fixture
def warm_cache(tmp_path):
    """A cache directory primed with every bench point's entry."""
    points = _points()
    results = SweepService(cache_dir=tmp_path).run(points)
    assert all(r.ok for r in results)
    return tmp_path


def test_bench_warm_cache_sweep(request, benchmark, warm_cache):
    points = _points()

    def sweep():
        return SweepService(cache_dir=warm_cache).run(points)

    results = benchmark.pedantic(sweep, rounds=5, iterations=1)
    assert all(r.cached for r in results)
    benchmark.extra_info["points"] = len(points)
    record_timing(
        request, benchmark, "service[warm-serial]", "engine",
        extra={"points": len(points), "cached": len(points)},
    )

