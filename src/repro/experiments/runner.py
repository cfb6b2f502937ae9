"""Compatibility facade over the layered sweep service.

Historically this module *was* the execution layer — a 900-line monolith
fusing dispatch, retry/blame policy, pool supervision, caching and
report merging.  That machinery now lives in
:mod:`repro.experiments.service`, decomposed into four seams:

* :mod:`~repro.experiments.service.queue` — sweep points as schedulable
  jobs with explicit states;
* :mod:`~repro.experiments.service.scheduler` — the scheduler owning
  the retry/timeout/crash-blame policy;
* :mod:`~repro.experiments.service.workers` — the supervised process
  pool (plus ``execute_point``, the single driver entry);
* :mod:`~repro.experiments.service.aggregate` — the streaming report
  aggregator.

The public names that generations of callers import from here —
``execute_point``, ``run_points``, ``RetryPolicy``, ``PointResult``,
``merge_experiment``, ``run_experiment``, ``run_all``, the ``KIND_*``
failure kinds — keep their exact signatures and semantics; they
delegate into the service.  New code should import from
:mod:`repro.experiments.service` directly (and may use its extra:
streaming aggregation).

The failure-semantics contract is documented in ``docs/experiments.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentReport
from repro.experiments.faults import TransientPointError
from repro.experiments.journal import SweepJournal
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.experiments.scenario import Scenario
from repro.experiments.service import SweepService
from repro.experiments.service.aggregate import merge_experiment
from repro.experiments.service.cache import code_version, default_cache_dir
from repro.experiments.service.queue import (
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
    KIND_TRANSIENT,
    ExperimentError,
    PointResult,
)
from repro.experiments.service.scheduler import NO_RETRY, RetryPolicy
from repro.experiments.service.workers import execute_point

__all__ = [
    "ExperimentError",
    "PointResult",
    "RetryPolicy",
    "NO_RETRY",
    "TransientPointError",
    "KIND_ERROR",
    "KIND_TRANSIENT",
    "KIND_CRASH",
    "KIND_TIMEOUT",
    "code_version",
    "default_cache_dir",
    "execute_point",
    "run_points",
    "merge_experiment",
    "run_experiment",
    "run_all",
]


def run_points(
    points: Sequence[Tuple[str, Scenario]],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[SweepJournal] = None,
) -> List[PointResult]:
    """Execute points (optionally across a supervised pool), in input order.

    The merge order is deterministic — results are reassembled by input
    position, so ``jobs=8`` produces exactly the reports ``jobs=1`` does.
    ``timeout`` bounds each driver attempt's wall clock (forces the pool
    path, even for ``jobs=1``); ``retry`` defaults to
    ``RetryPolicy(max_attempts=3)`` retrying crashes/timeouts/transient
    failures; ``journal`` receives start/finish/fail records as they
    happen (see :mod:`repro.experiments.journal`).
    """
    service = SweepService(
        jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        timeout=timeout, retry=retry, journal=journal,
    )
    return service.run(points)


def run_experiment(
    exp_id: str,
    scenarios: Optional[Sequence[Scenario]] = None,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> ExperimentReport:
    """Run one experiment over its (default or given) scenarios; merge."""
    spec = get_spec(exp_id)
    scens = tuple(scenarios) if scenarios is not None else spec.default_scenarios
    results = run_points(
        [(exp_id, s) for s in scens], jobs=jobs, use_cache=use_cache,
        cache_dir=cache_dir, timeout=timeout, retry=retry,
    )
    failures = [r for r in results if not r.ok]
    if failures:
        raise ExperimentError(failures)
    return merge_experiment(exp_id, results)


def run_all(
    ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    scenarios: Optional[Sequence[Scenario]] = None,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[SweepJournal] = None,
) -> List[ExperimentReport]:
    """Run experiments in paper order and return one merged report each.

    ``scenarios`` overrides the per-experiment defaults for *every*
    selected experiment (the CLI's ``--scenario`` path builds on this via
    override pairs instead).
    """
    selected = list(ids) if ids is not None else list(EXPERIMENTS)
    points: List[Tuple[str, Scenario]] = []
    for exp_id in selected:
        spec = get_spec(exp_id)
        for scen in scenarios if scenarios is not None else spec.default_scenarios:
            points.append((exp_id, scen))
    results = run_points(
        points, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        timeout=timeout, retry=retry, journal=journal,
    )
    failures = [r for r in results if not r.ok]
    if failures:
        raise ExperimentError(failures)
    by_exp: Dict[str, List[PointResult]] = {}
    for res in results:
        by_exp.setdefault(res.exp_id, []).append(res)
    return [merge_experiment(exp_id, by_exp[exp_id]) for exp_id in selected]
