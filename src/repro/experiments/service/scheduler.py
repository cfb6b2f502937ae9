"""The sweep loop: every point attempt, in-process or on one supervised pool.

The policy layer of the sweep service.  :class:`SweepService` keeps a
sweep's points as a plain list of
:class:`~repro.experiments.service.queue.Job`, in input order, and runs
them to completion in one loop.  Without a timeout, a ``jobs=1`` or
one-point sweep runs its points in this process; any other sweep runs on
one :class:`~repro.experiments.service.workers.WorkerPool`.  Both record
every attempt through the same bookkeeping: the journal's ``start``,
``finish`` and ``fail`` records, the retry backoff, and the result
callback into the :class:`~repro.experiments.service.aggregate.ReportAggregator`.
Ready jobs dispatch in input order, so a healthy point runs while a
failed one backs off.

Supervision invariants of the pool:

* at most ``workers`` futures are in flight, so every in-flight future
  is actually *running* — which is what lets the per-point deadline
  start at submit time;
* a ``BrokenProcessPool`` affects only the in-flight points (finished
  futures keep their results) and restarts the pool;
* crash *attribution* is exact: when several points were in flight, the
  executor cannot say whose worker died, so none is charged an attempt
  — all casualties become **suspects** and re-run one at a time, with
  normal dispatch paused.  A point that breaks the pool while running
  alone is unambiguously the culprit: it is charged a ``crash`` attempt
  and retried/failed under the policy;
* a future past its deadline kills the pool (a stuck worker cannot be
  cancelled), records a timeout for that point — the expired future is
  known, so timeout attribution is always exact — and requeues innocent
  in-flight victims without charging them.
"""

from __future__ import annotations

import hashlib
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentReport
from repro.experiments.journal import SweepJournal
from repro.experiments.registry import load_drivers
from repro.experiments.scenario import Scenario
from repro.experiments.service import cache
from repro.experiments.service.aggregate import ReportAggregator
from repro.experiments.service.queue import (
    CLAIMED,
    DONE,
    FAILED,
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
    PENDING,
    Job,
    PointResult,
)
from repro.experiments.service.workers import WorkerPool, WorkItem, execute_point

__all__ = ["NO_RETRY", "RetryPolicy", "SweepService", "SweepStats"]

#: Retry backoff: exponential from ``BACKOFF_BASE_S``, capped at
#: ``BACKOFF_CAP_S``, plus deterministic jitter of up to ``BACKOFF_JITTER``
#: of the step.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a failed point gets.

    Worker crashes, timeouts and transient driver errors are retried up
    to ``max_attempts`` attempts; deterministic errors fail fast.  The
    jitter is a hash of the point key and attempt number, so retry
    schedules decorrelate across points yet reproduce exactly run to run.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def should_retry(self, kind: str, attempt: int) -> bool:
        return attempt < self.max_attempts and kind != KIND_ERROR

    def backoff(self, attempt: int, key: str = "") -> float:
        delay = min(BACKOFF_BASE_S * (2 ** (attempt - 1)), BACKOFF_CAP_S)
        h = int.from_bytes(
            hashlib.sha256(f"{key}:{attempt}".encode()).digest()[:4], "big"
        )
        return delay + delay * BACKOFF_JITTER * (h / 2**32)


#: Retry nothing — the pre-supervision behaviour, useful in tests.
NO_RETRY = RetryPolicy(max_attempts=1)


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
    """One sweep, end to end: run its points, retry them, aggregate them.

    ``run`` executes a point list — results in input order, identical
    reports for any ``jobs`` setting — and leaves ``queue`` (the jobs)
    and ``aggregator`` (merged reports, execution counters) behind for
    the caller.
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
        # NaN fails both comparisons; past TIMEOUT_MAX the pool's wait()
        # overflows.
        if timeout is not None and not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be in (0, {threading.TIMEOUT_MAX:g}] seconds, "
                f"got {timeout!r}"
            )
        self.jobs = jobs
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.aggregator = ReportAggregator()
        self.stats = SweepStats()
        self.queue: List[Job] = []
        self._version: Optional[str] = None
        self._inflight: Dict[Future, Tuple[Job, Optional[float]]] = {}
        # Crash suspects awaiting a solo (attributable) re-run; while
        # this list is non-empty, normal dispatch pauses.
        self._suspects: List[Job] = []

    # -- one attempt's bookkeeping ----------------------------------------

    def _start(self, job: Job) -> None:
        job.state = CLAIMED
        if self.journal is not None:
            self.journal.point_start(job.index, job.exp_id, job.attempt)

    def _settle(self, job: Job, result: PointResult) -> None:
        """Record an attempt's outcome: a finish, or a failure to retry."""
        if not result.ok:
            self._fail(job, result.error_kind or KIND_ERROR, result.error or "")
            return
        result.attempts = job.attempt
        result.crashes = job.crashes
        result.timeouts = job.timeouts
        job.state = DONE
        job.result = result
        if self.journal is not None:
            self.journal.point_finish(
                job.index, job.exp_id, job.attempt, result.cached
            )
        self.aggregator.add(job.index, result)

    def _fail(self, job: Job, kind: str, error: str) -> None:
        if kind == KIND_CRASH:
            job.crashes += 1
        elif kind == KIND_TIMEOUT:
            job.timeouts += 1
        if self.journal is not None:
            self.journal.point_fail(job.index, job.exp_id, job.attempt, kind, error)
        if self.retry.should_retry(kind, job.attempt):
            job.ready_at = time.monotonic() + self.retry.backoff(job.attempt, job.key)
            job.attempt += 1
            job.state = PENDING
            return
        job.state = FAILED
        job.result = PointResult(
            job.exp_id, job.scenario, error=error, error_kind=kind,
            attempts=job.attempt, crashes=job.crashes, timeouts=job.timeouts,
        )
        self.aggregator.add(job.index, job.result)

    # -- the job list ------------------------------------------------------

    def _pending(self) -> List[Job]:
        return [job for job in self.queue if job.state == PENDING]

    def _ready(self, now: float) -> List[Job]:
        """Dispatchable jobs, in input order."""
        return [job for job in self._pending() if job.ready_at <= now]

    def _next_wake(self) -> Optional[float]:
        """Earliest time anything becomes dispatchable (nothing in flight)."""
        # Pending jobs only matter once no suspect pauses dispatch.
        waiting = self._suspects or self._pending()
        return min((j.ready_at for j in waiting), default=None)

    # -- the pool ----------------------------------------------------------

    def _submit(self, pool: WorkerPool, job: Job) -> None:
        self._start(job)
        item = WorkItem(
            exp_id=job.exp_id,
            scenario=job.scenario.to_dict(),
            use_cache=self.use_cache,
            cache_dir=str(self.cache_dir) if self.cache_dir else None,
            code_version=self._version,
            attempt=job.attempt,
        )
        fut = pool.submit(item)
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        self._inflight[fut] = (job, deadline)

    def _consume(self, fut: Future, job: Job) -> bool:
        """Settle one completed future's attempt; True if the pool broke.

        A ``BrokenProcessPool`` outcome does *not* judge the point here —
        whether it is charged as the culprit or spared as a casualty
        depends on how many futures were in flight, which only the main
        loop knows.
        """
        # Not at module top, so an in-process sweep never loads the pool's
        # modules; only a pool's futures get here.
        from concurrent.futures.process import BrokenProcessPool

        try:
            reply = fut.result()
        except BrokenProcessPool:
            return True
        except Exception:
            self._fail(job, KIND_ERROR, traceback.format_exc())
            return False
        if reply.exp_id != job.exp_id:
            # Ordering invariant between dispatch and results; a real
            # error (not an assert) so it cannot vanish under python -O.
            raise RuntimeError(
                f"pool returned a result for {reply.exp_id!r} on the future "
                f"of {job.exp_id!r}: dispatch bookkeeping is corrupt"
            )
        report = None
        if reply.error is None:
            report = ExperimentReport.from_json(reply.report_json or "")
        self._settle(job, PointResult(
            job.exp_id, job.scenario, report=report, error=reply.error,
            cached=reply.cached, error_kind=reply.error_kind,
        ))
        return False

    def _dispatch(self, pool: WorkerPool, now: float) -> None:
        # Suspect isolation takes priority: while crash suspects exist,
        # exactly one runs at a time (so a repeat crash is attributable)
        # and normal dispatch pauses.
        if self._suspects:
            if not self._inflight and self._suspects[0].ready_at <= now:
                self._submit(pool, self._suspects.pop(0))
            return
        free = pool.max_workers - len(self._inflight)
        if free > 0:
            for job in self._ready(now)[:free]:
                self._submit(pool, job)

    def _collect(self, pool: WorkerPool, now: float) -> None:
        """Wait for the in-flight futures and settle what they report."""
        # Wake on the first completion, the earliest deadline, or the
        # earliest backoff expiry — whichever comes first.  Only *future*
        # backoff expiries matter here: a pending point that is already
        # ready just needs a worker slot, which only a completion can
        # free — so it must not clamp the wait to zero.
        horizon = [
            dl - now for (_, dl) in self._inflight.values() if dl is not None
        ]
        horizon.extend(
            j.ready_at - now
            for j in self._suspects + self._pending()
            if j.ready_at > now
        )
        wait_for = max(0.0, min(horizon)) if horizon else None
        done, _ = wait(
            list(self._inflight), timeout=wait_for, return_when=FIRST_COMPLETED,
        )
        casualties: List[Job] = []
        for fut in done:
            job, _ = self._inflight.pop(fut)
            if self._consume(fut, job):
                casualties.append(job)
        if casualties:
            self._handle_broken(pool, casualties, time.monotonic())
        else:
            self._handle_timeouts(pool, time.monotonic())

    def _handle_broken(
        self, pool: WorkerPool, casualties: List[Job], now: float
    ) -> None:
        # The pool is dead.  Drain the rest: futures that finished
        # before the crash still carry real results.
        wait(list(self._inflight), timeout=5.0)
        for fut, (job, _) in list(self._inflight.items()):
            del self._inflight[fut]
            if not fut.done() or self._consume(fut, job):
                casualties.append(job)
        if len(casualties) == 1:
            # Every other in-flight point finished with a real result,
            # so the dead worker was provably this one's.
            job = casualties[0]
            self._fail(
                job, KIND_CRASH,
                f"worker process died while running {job.exp_id} "
                f"[{job.scenario.describe()}] (BrokenProcessPool)",
            )
        else:
            # Ambiguous: any of the casualties may be the culprit.
            # Nobody is charged an attempt; all re-run solo so the next
            # crash (if any) is attributable.
            for job in casualties:
                job.ready_at = now
                self._suspects.append(job)
            self._suspects.sort(key=lambda j: j.index)
        pool.restart()

    def _handle_timeouts(self, pool: WorkerPool, now: float) -> None:
        # Deadline enforcement: a stuck worker cannot be cancelled, so
        # the pool dies with it and innocents are requeued (same attempt
        # — they did nothing wrong).
        expired = [
            (fut, job)
            for fut, (job, dl) in self._inflight.items()
            if dl is not None and now >= dl and not fut.done()
        ]
        if not expired:
            return
        assert self.timeout is not None
        for fut, job in expired:
            del self._inflight[fut]
            self._fail(
                job, KIND_TIMEOUT,
                f"point {job.exp_id} [{job.scenario.describe()}] exceeded the "
                f"{self.timeout:g}s wall-clock timeout on attempt "
                f"{job.attempt}",
            )
        for fut, (job, _) in list(self._inflight.items()):
            del self._inflight[fut]
            if not fut.done():
                # Innocent victim of the pool teardown: requeue at the
                # same attempt.
                job.state = PENDING
                job.ready_at = now
            elif self._consume(fut, job):
                # The pool also broke under this future (crash and
                # timeout in the same round): treat as a suspect.
                job.ready_at = now
                self._suspects.append(job)
        pool.restart()

    # -- entry ---------------------------------------------------------------

    def run(self, points: Sequence[Tuple[str, Scenario]]) -> List[PointResult]:
        """Execute points (in-process or on the supervised pool), in input order."""
        points = list(points)
        if self.journal is not None:
            self.journal.sweep_start(points, cache.code_version(), self.jobs)
        self.queue = [Job(i, exp_id, scen) for i, (exp_id, scen) in enumerate(points)]
        pool: Optional[WorkerPool] = None
        if points and (self.timeout is not None or min(self.jobs, len(points)) > 1):
            self._version = cache.code_version()
            # Drivers are imported on first call; import this sweep's now,
            # so the forked workers inherit them instead of each importing
            # numpy.
            load_drivers(job.exp_id for job in self.queue)
            pool = WorkerPool(min(self.jobs, len(points)))
        try:
            while any(not job.settled for job in self.queue):
                now = time.monotonic()
                if pool is None:
                    ready = self._ready(now)
                    if ready:
                        job = ready[0]
                        self._start(job)
                        self._settle(job, execute_point(
                            job.exp_id, job.scenario, use_cache=self.use_cache,
                            cache_dir=self.cache_dir, attempt=job.attempt,
                        ))
                        continue
                else:
                    self._dispatch(pool, now)
                    if self._inflight:
                        self._collect(pool, now)
                        continue
                # Everything runnable is backing off; sleep to the nearest
                # wake-up.
                wake = self._next_wake()
                if wake is not None:
                    time.sleep(max(0.0, wake - time.monotonic()))
        finally:
            if pool is not None:
                pool.shutdown()
        return [job.result for job in self.queue if job.result is not None]
