"""Sweep service on a warm cache: every point of a primed sweep is a hit.

A sweep whose every point is cached is a skim of JSON entries; this is
what makes ``--resume`` of a mostly-finished sweep instant.
"""

from __future__ import annotations

import pytest

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
    """A cache directory primed with every point's entry."""
    results = SweepService(cache_dir=tmp_path).run(_points())
    assert all(r.ok for r in results)
    return tmp_path


def test_bench_warm_cache_sweep(warm_cache):
    points = _points()
    results = SweepService(cache_dir=warm_cache).run(points)
    assert len(results) == len(points)
    assert all(r.cached for r in results)
