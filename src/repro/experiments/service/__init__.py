"""Layered sweep service: service loop → worker pool → aggregator.

The execution path of the experiment pipeline, one module per layer:

* :mod:`~repro.experiments.service.scheduler` — :class:`SweepService`,
  the sweep's one loop: it keeps the points as :class:`Job` entries
  (:mod:`~repro.experiments.service.queue`), runs them in-process or on
  one supervised worker pool, and records every attempt the same way
  (journal, retry backoff, aggregator callback);
* :mod:`~repro.experiments.service.workers` — the process pool and
  :func:`execute_point`, the single driver entry;
* :mod:`~repro.experiments.service.aggregate` — the
  :class:`ReportAggregator`, merging settled points into per-experiment
  reports on demand.

:func:`run_all` / :func:`run_experiment` run registry experiments
through one :class:`SweepService` and return their merged reports.  The
cache/claim machinery every point goes through lives in
:mod:`~repro.experiments.service.cache`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentReport
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.experiments.scenario import Scenario
from repro.experiments.service.aggregate import ReportAggregator
from repro.experiments.service.queue import ExperimentError, Job, PointResult
from repro.experiments.service.scheduler import (
    NO_RETRY,
    RetryPolicy,
    SweepService,
    SweepStats,
)
from repro.experiments.service.workers import WorkerPool, execute_point

__all__ = [
    "ExperimentError",
    "Job",
    "NO_RETRY",
    "PointResult",
    "ReportAggregator",
    "RetryPolicy",
    "SweepService",
    "SweepStats",
    "WorkerPool",
    "execute_point",
    "run_all",
    "run_experiment",
]


def run_all(
    ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Optional[Path] = None,
    scenarios: Optional[Sequence[Scenario]] = None,
) -> List[ExperimentReport]:
    """Run experiments (default: the whole registry) in the given order
    and return one merged report each.

    ``scenarios`` overrides every selected experiment's default
    scenarios.  The result cache is off unless ``use_cache`` is set.
    Any failed point raises :class:`ExperimentError` once the sweep has
    settled.
    """
    selected = list(ids) if ids is not None else list(EXPERIMENTS)
    points: List[Tuple[str, Scenario]] = []
    for exp_id in selected:
        scens = get_spec(exp_id).default_scenarios if scenarios is None else scenarios
        if not scens:
            raise ValueError(f"no reports to merge for {exp_id!r}: no scenarios")
        points.extend((exp_id, scen) for scen in scens)
    service = SweepService(jobs=jobs, use_cache=use_cache, cache_dir=cache_dir)
    failures = [r for r in service.run(points) if not r.ok]
    if failures:
        raise ExperimentError(failures)
    return service.aggregator.reports(selected)


def run_experiment(
    exp_id: str,
    scenarios: Optional[Sequence[Scenario]] = None,
    jobs: int = 1,
    use_cache: bool = False,
    cache_dir: Optional[Path] = None,
) -> ExperimentReport:
    """Run one experiment over its default (or the given) scenarios."""
    [report] = run_all(
        [exp_id], jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        scenarios=scenarios,
    )
    return report
