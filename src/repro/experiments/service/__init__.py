"""Layered sweep service: queue → scheduler → worker pool → aggregator.

The execution path of the experiment pipeline, decomposed into four
explicit seams (each its own module):

* :mod:`~repro.experiments.service.queue` — sweep points as schedulable
  :class:`Job` units with ``pending/claimed/done/failed`` states;
* :mod:`~repro.experiments.service.scheduler` — the :class:`Scheduler`,
  dispatching ready jobs in input order to one supervised worker pool
  and owning the retry/timeout/blame policy;
* :mod:`~repro.experiments.service.workers` — the process pool and
  :func:`execute_point`, the single driver entry;
* :mod:`~repro.experiments.service.aggregate` — the streaming
  :class:`ReportAggregator`, folding settled points into per-experiment
  reports incrementally (partial reports on demand).

:class:`SweepService` composes the four, and :func:`run_all` /
:func:`run_experiment` run registry experiments through it and merge
their reports.  The cache/claim machinery the serial and pooled paths
share lives in :mod:`~repro.experiments.service.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentReport
from repro.experiments.journal import SweepJournal
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.experiments.scenario import Scenario
from repro.experiments.service import cache
from repro.experiments.service.aggregate import ReportAggregator, merge_experiment
from repro.experiments.service.queue import (
    ExperimentError,
    Job,
    JobQueue,
    PointResult,
)
from repro.experiments.service.scheduler import (
    NO_RETRY,
    RetryPolicy,
    Scheduler,
    run_serial,
)
from repro.experiments.service.workers import WorkerPool, execute_point

__all__ = [
    "ExperimentError",
    "Job",
    "JobQueue",
    "NO_RETRY",
    "PointResult",
    "ReportAggregator",
    "RetryPolicy",
    "Scheduler",
    "SweepService",
    "SweepStats",
    "WorkerPool",
    "execute_point",
    "merge_experiment",
    "run_all",
    "run_experiment",
    "run_serial",
]


@dataclass(frozen=True)
class SweepStats:
    """Counters a single pool never moves off 0.

    Their only reader is ``perfbench/tracer.py``, which reports them per
    sweep; they go once the benchmark stops asking for them.
    """

    steals: int = 0
    slab_points: int = 0
    pickle_bytes_avoided: int = 0


class SweepService:
    """One sweep, end to end: build the queue, schedule it, aggregate it.

    The composition root of the service layers.  ``run`` executes a
    point list — results in input order, identical reports for any
    ``jobs`` setting — and leaves the streaming ``aggregator`` (partial
    reports, execution counters) behind for the caller.
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir: Optional[Path] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[SweepJournal] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.jobs = jobs
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.aggregator = ReportAggregator()
        self.stats = SweepStats()

    def run(self, points: Sequence[Tuple[str, Scenario]]) -> List[PointResult]:
        """Execute points (serially or on the supervised pool), in input order."""
        points = list(points)
        if self.journal is not None:
            self.journal.sweep_start(points, cache.code_version(), self.jobs)
        if not points:
            return []
        queue = JobQueue.from_points(points)
        if self.timeout is None and (self.jobs == 1 or len(points) == 1):
            return run_serial(
                queue, use_cache=self.use_cache, cache_dir=self.cache_dir,
                retry=self.retry, journal=self.journal,
                on_result=self.aggregator.add,
            )
        return Scheduler(
            queue,
            jobs=self.jobs,
            use_cache=self.use_cache,
            cache_dir=self.cache_dir,
            timeout=self.timeout,
            retry=self.retry,
            journal=self.journal,
            on_result=self.aggregator.add,
        ).run()


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
