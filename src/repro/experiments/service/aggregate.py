"""Report aggregation: merge settled points into reports on demand.

The top layer of the sweep service.  A :class:`ReportAggregator` keeps
every settled :class:`~repro.experiments.service.queue.PointResult` by
input position, as the sweep service's result callback hands them over,
and merges them when asked: :meth:`~ReportAggregator.reports` folds each
experiment's successful points in input order, so the reports are the
same whatever order the points settled in, and a merge over the points
finished so far holds a prefix-stable subset of the final rows.  The
CLI reads the reports and the ``--json`` execution counters from it;
``status --partial`` feeds it the finished points of a journal.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import ExperimentReport, merge_reports
from repro.experiments.registry import get_spec
from repro.experiments.service.queue import PointResult

__all__ = ["ReportAggregator"]


class ReportAggregator:
    """Settled points by input position, merged into reports on demand."""

    def __init__(self) -> None:
        self._results: Dict[int, PointResult] = {}

    def add(self, index: int, result: PointResult) -> None:
        """Keep one settled point (the sweep service's result callback)."""
        self._results[index] = result

    def _in_order(self) -> List[PointResult]:
        return [self._results[i] for i in sorted(self._results)]

    def reports(self, ids: List[str]) -> List[ExperimentReport]:
        """One merged report per requested experiment that has results."""
        by_exp: Dict[str, List[ExperimentReport]] = {}
        for res in self._in_order():
            if res.report is not None:
                by_exp.setdefault(res.exp_id, []).append(res.report)
        return [
            merge_reports(exp_id, get_spec(exp_id).title, by_exp[exp_id])
            for exp_id in ids
            if exp_id in by_exp
        ]

    def execution_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-experiment supervision counters (the ``--json`` block).

        How many attempts the sweep spent on the experiment's points,
        and how many were lost to crashes/timeouts — the observability
        face of the supervised runner (points that failed outright are
        counted here too, even though their rows are absent).
        """
        stats: Dict[str, Dict[str, int]] = {}
        for res in self._in_order():
            st = stats.setdefault(
                res.exp_id,
                {"points": 0, "attempts": 0, "retries": 0, "crashes": 0,
                 "timeouts": 0, "cached": 0, "failed": 0},
            )
            st["points"] += 1
            st["attempts"] += res.attempts
            st["retries"] += res.retries
            st["crashes"] += res.crashes
            st["timeouts"] += res.timeouts
            st["cached"] += 1 if res.cached else 0
            st["failed"] += 0 if res.ok else 1
        return stats
