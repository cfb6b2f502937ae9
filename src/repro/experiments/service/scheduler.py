"""Scheduler: retry/timeout/blame policy over one supervised worker pool.

The policy layer of the sweep service.  A :class:`Scheduler` drives a
:class:`~repro.experiments.service.queue.JobQueue` to completion on one
:class:`~repro.experiments.service.workers.WorkerPool`, dispatching
ready jobs in input order.

Supervision invariants:

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
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import faults
from repro.experiments.base import ExperimentReport
from repro.experiments.journal import SweepJournal
from repro.experiments.registry import load_drivers
from repro.experiments.service import cache
from repro.experiments.service.queue import (
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
    Job,
    JobQueue,
    PointResult,
)
from repro.experiments.service.workers import WorkerPool, WorkItem, execute_point

__all__ = [
    "NO_RETRY",
    "RetryPolicy",
    "Scheduler",
    "run_serial",
]

#: Callback fired as each point settles: (input index, outcome).
ResultCallback = Callable[[int, PointResult], None]


@dataclass(frozen=True)
class RetryPolicy:
    """When and how to retry a failed point.

    ``retryable`` maps a failure kind (``KIND_*``) to whether another
    attempt may help; the default retries worker crashes, timeouts and
    transient driver errors, and fails deterministic errors fast.
    Backoff is exponential from ``base_delay`` (capped at ``max_delay``)
    plus *deterministic* jitter — a hash of the point key and attempt
    number, so retry schedules decorrelate across points yet reproduce
    exactly run to run.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25  # extra fraction of the backoff step, [0, jitter)
    retryable: Optional[Callable[[str], bool]] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def is_retryable(self, kind: str) -> bool:
        if self.retryable is not None:
            return self.retryable(kind)
        return kind != KIND_ERROR

    def should_retry(self, kind: str, attempt: int) -> bool:
        return attempt < self.max_attempts and self.is_retryable(kind)

    def backoff(self, attempt: int, key: str = "") -> float:
        delay = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        if self.jitter > 0 and delay > 0:
            h = int.from_bytes(
                hashlib.sha256(f"{key}:{attempt}".encode()).digest()[:4], "big"
            )
            delay += delay * self.jitter * (h / 2**32)
        return delay


#: Retry nothing — the pre-supervision behaviour, useful in tests.
NO_RETRY = RetryPolicy(max_attempts=1)


class Scheduler:
    """Drive a job queue to completion on one supervised worker pool."""

    def __init__(
        self,
        queue: JobQueue,
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir: Optional[Path] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[SweepJournal] = None,
        on_result: Optional[ResultCallback] = None,
    ):
        self.queue = queue
        self.jobs = jobs
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.on_result = on_result
        self._version: Optional[str] = None
        self._plan_json: Optional[str] = None
        self._inflight: Dict[Future, Tuple[Job, Optional[float]]] = {}
        # Crash suspects awaiting a solo (attributable) re-run; while
        # this list is non-empty, normal dispatch pauses.
        self._suspects: List[Job] = []

    # -- lifecycle transitions ------------------------------------------

    def _submit(self, pool: WorkerPool, job: Job) -> None:
        self.queue.claim(job)
        if self.journal is not None:
            self.journal.point_start(job.index, job.exp_id, job.attempt)
        item = WorkItem(
            exp_id=job.exp_id,
            scenario=job.scenario.to_dict(),
            use_cache=self.use_cache,
            cache_dir=str(self.cache_dir) if self.cache_dir else None,
            code_version=self._version,
            attempt=job.attempt,
            plan_json=self._plan_json,
        )
        fut = pool.submit(item)
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        self._inflight[fut] = (job, deadline)

    def _finish(self, job: Job, result: PointResult) -> None:
        result.attempts = job.attempt
        result.crashes = job.crashes
        result.timeouts = job.timeouts
        self.queue.finish(job, result)
        if self.journal is not None:
            self.journal.point_finish(
                job.index, result.exp_id, job.attempt, result.cached
            )
        if self.on_result is not None:
            self.on_result(job.index, result)

    def _fail(self, job: Job, kind: str, error: str) -> None:
        if kind == KIND_CRASH:
            job.crashes += 1
        elif kind == KIND_TIMEOUT:
            job.timeouts += 1
        if self.journal is not None:
            self.journal.point_fail(job.index, job.exp_id, job.attempt, kind, error)
        if self.retry.should_retry(kind, job.attempt):
            delay = self.retry.backoff(job.attempt, job.key)
            job.attempt += 1
            self.queue.requeue(job, time.monotonic() + delay)
        else:
            result = PointResult(
                job.exp_id, job.scenario, error=error, error_kind=kind,
                attempts=job.attempt, crashes=job.crashes, timeouts=job.timeouts,
            )
            self.queue.fail(job, result)
            if self.on_result is not None:
                self.on_result(job.index, result)

    def _consume(self, fut: Future, job: Job) -> bool:
        """Fold one completed future into the queue; True if pool broke.

        A ``BrokenProcessPool`` outcome does *not* judge the point here —
        whether it is charged as the culprit or spared as a casualty
        depends on how many futures were in flight, which only the main
        loop knows.
        """
        # Not at module top, so a serial sweep never loads the pool's
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
        if reply.error is not None:
            self._fail(job, reply.error_kind or KIND_ERROR, reply.error)
            return False
        self._finish(
            job,
            PointResult(job.exp_id, job.scenario,
                        report=ExperimentReport.from_json(reply.report_json or ""),
                        cached=reply.cached),
        )
        return False

    # -- main-loop helpers ----------------------------------------------

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
            for job in self.queue.ready(now)[:free]:
                self._submit(pool, job)

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
                self.queue.requeue(job, now)
            elif self._consume(fut, job):
                # The pool also broke under this future (crash and
                # timeout in the same round): treat as a suspect.
                job.ready_at = now
                self._suspects.append(job)
        pool.restart()

    def _next_wake(self) -> Optional[float]:
        """Earliest time anything becomes dispatchable (nothing in flight)."""
        # Pending jobs only matter once no suspect pauses dispatch.
        waiting = self._suspects or self.queue.pending()
        return min((j.ready_at for j in waiting), default=None)

    # -- entry -----------------------------------------------------------

    def run(self) -> List[PointResult]:
        q = self.queue
        if not q.jobs:
            return []
        self._version = cache.code_version()
        plan = faults.active_plan()
        self._plan_json = plan.to_json() if plan is not None else None

        # Drivers are imported on first call; import this sweep's now, so
        # the forked workers inherit them instead of each importing numpy.
        load_drivers(job.exp_id for job in q.jobs)
        pool = WorkerPool(max(1, min(self.jobs, len(q.jobs))))
        try:
            while q.unsettled:
                now = time.monotonic()
                self._dispatch(pool, now)
                if not self._inflight:
                    # Everything runnable is backing off; sleep to the
                    # nearest wake-up.
                    wake = self._next_wake()
                    if wake is not None:
                        time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                # Wake on the first completion, the earliest deadline, or
                # the earliest backoff expiry — whichever comes first.
                # Only *future* backoff expiries matter here: a pending
                # point that is already ready just needs a worker slot,
                # which only a completion can free — so it must not clamp
                # the wait to zero.
                horizon = [
                    dl - now for (_, dl) in self._inflight.values() if dl is not None
                ]
                horizon.extend(
                    j.ready_at - now
                    for j in self._suspects + q.pending()
                    if j.ready_at > now
                )
                wait_for = max(0.0, min(horizon)) if horizon else None
                done, _ = wait(
                    list(self._inflight), timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )

                casualties: List[Job] = []
                for fut in done:
                    job, _ = self._inflight.pop(fut)
                    if self._consume(fut, job):
                        casualties.append(job)
                if casualties:
                    self._handle_broken(pool, casualties, time.monotonic())
                    continue
                self._handle_timeouts(pool, time.monotonic())
        finally:
            pool.shutdown()

        return q.results()


# -- serial path ---------------------------------------------------------


def run_serial(
    queue: JobQueue,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[SweepJournal] = None,
    on_result: Optional[ResultCallback] = None,
) -> List[PointResult]:
    """In-process execution with retry/backoff (no crash isolation).

    ``jobs=1`` runs here: a worker kill cannot be survived in-process
    (the fault layer downgrades it to a transient raise) and timeouts are
    unenforceable without a subprocess, but transient failures still
    retry under the policy and the journal still records progress.
    """
    policy = retry if retry is not None else RetryPolicy()
    for job in queue.jobs:
        while True:
            if journal is not None:
                journal.point_start(job.index, job.exp_id, job.attempt)
            res = execute_point(
                job.exp_id, job.scenario, use_cache=use_cache,
                cache_dir=cache_dir, attempt=job.attempt,
            )
            if res.ok:
                if journal is not None:
                    journal.point_finish(
                        job.index, job.exp_id, job.attempt, res.cached
                    )
                break
            kind = res.error_kind or KIND_ERROR
            if journal is not None:
                journal.point_fail(job.index, job.exp_id, job.attempt, kind,
                                   res.error or "")
            if not policy.should_retry(kind, job.attempt):
                break
            time.sleep(policy.backoff(job.attempt, job.key))
            job.attempt += 1
        res.attempts = job.attempt
        if res.ok:
            queue.finish(job, res)
        else:
            queue.fail(job, res)
        if on_result is not None:
            on_result(job.index, res)
    return queue.results()
