"""Sweep points as jobs with explicit states, and what a point settles to.

The bottom layer of the sweep service.  The service keeps one
:class:`Job` per (experiment, scenario) point in a plain list, in input
order, and moves each through the ``pending -> claimed -> done | failed``
lifecycle.  Jobs carry their readiness time (retry backoff) and
supervision counters; :class:`~repro.experiments.service.scheduler.SweepService`
owns every change to them.

Failure kinds (``KIND_*``) and the per-point outcome record
(:class:`PointResult`) live here because every layer above speaks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.base import ExperimentReport
from repro.experiments.scenario import Scenario

__all__ = [
    "ExperimentError",
    "Job",
    "PointResult",
    "KIND_ERROR",
    "KIND_TRANSIENT",
    "KIND_CRASH",
    "KIND_TIMEOUT",
    "PENDING",
    "CLAIMED",
    "DONE",
    "FAILED",
]

# Failure kinds, attached to PointResult.error_kind and fed to the retry
# policy.  "error" is a deterministic driver exception (fails fast by
# default); the other three are transient infrastructure/driver faults.
KIND_ERROR = "error"
KIND_TRANSIENT = "transient"
KIND_CRASH = "crash"
KIND_TIMEOUT = "timeout"

# Job lifecycle states.
PENDING = "pending"  # dispatchable (once ready_at has passed)
CLAIMED = "claimed"  # submitted to a worker, or held for a solo re-run
DONE = "done"  # finished with a report
FAILED = "failed"  # terminally failed (retry budget exhausted)


class ExperimentError(RuntimeError):
    """One or more (experiment, scenario) points failed."""

    def __init__(self, failures: List["PointResult"]):
        self.failures = failures
        lines = [f"{len(failures)} experiment point(s) failed:"]
        for f in failures:
            first = (f.error or "").strip().splitlines()
            lines.append(f"  {f.exp_id} [{f.scenario.describe()}]: "
                         f"{first[-1] if first else 'unknown error'}")
        super().__init__("\n".join(lines))


@dataclass
class PointResult:
    """Outcome of one (experiment, scenario) point."""

    exp_id: str
    scenario: Scenario
    report: Optional[ExperimentReport] = None
    error: Optional[str] = None  # formatted traceback on failure
    cached: bool = False
    # Supervision counters: how hard the runner had to work for this
    # outcome.  attempts counts driver dispatches (1 = first try worked);
    # crashes/timeouts count the attempts lost to a dead or stuck worker.
    attempts: int = 1
    crashes: int = 0
    timeouts: int = 0
    error_kind: Optional[str] = None  # KIND_* of the *final* failure

    @property
    def ok(self) -> bool:
        return self.report is not None

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class Job:
    """One sweep point moving through its lifecycle."""

    index: int
    exp_id: str
    scenario: Scenario
    state: str = PENDING
    attempt: int = 1  # next attempt number to dispatch
    ready_at: float = 0.0  # monotonic time before which we must not resubmit
    crashes: int = 0
    timeouts: int = 0
    result: Optional[PointResult] = field(default=None, repr=False)

    @property
    def key(self) -> str:
        """Stable point key (seeds the retry jitter)."""
        return f"{self.exp_id}/{self.scenario.content_hash}"

    @property
    def settled(self) -> bool:
        return self.state in (DONE, FAILED)

