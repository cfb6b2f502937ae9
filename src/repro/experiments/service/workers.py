"""Worker fleet: the supervised process pool and the driver entry.

The execution layer of the sweep service.  Two pieces live here:

* :func:`execute_point` — the single place a driver is invoked.
  In-process sweeps, pool workers, the CLI and the registry all come
  through here, so caching and error capture behave identically
  everywhere.
* :class:`WorkerPool` — the process pool the sweep service supervises.
  This is the **only** module allowed to construct a
  ``ProcessPoolExecutor`` (lint rule SAN109 enforces it), so pool
  lifecycle quirks — submit racing a worker death, killing a pool whose
  workers are stuck, workers outliving a killed parent — are handled
  once.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.experiments import faults
from repro.experiments.base import ExperimentReport
from repro.experiments.faults import TransientPointError
from repro.experiments.registry import get_spec
from repro.experiments.scenario import Scenario
from repro.experiments.service import cache
from repro.experiments.service.queue import (
    KIND_ERROR,
    KIND_TRANSIENT,
    PointResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "WorkItem",
    "WorkerPool",
    "WorkerReply",
    "execute_point",
    "worker_main",
]


# -- the single driver entry path ----------------------------------------


def _run_driver(spec: Any, scenario: Scenario) -> ExperimentReport:
    """Invoke the driver under the scenario's backend, and under a
    sanitizer session when the scenario asks.

    ``scenario.backend`` (``None`` runs ``"auto"``) is the process-wide
    oracle switch (:func:`repro.sim.engine.use_backend`) for the driver's
    run and is restored afterwards, also when the driver raises, so it
    holds per point in a pool worker as in-process.

    ``scenario.sanitize`` installs a :class:`repro.sanitize.SanitizerSession`
    around the driver call, so every instrumented engine/scope/memory hook
    inside the driver's simulations records into one stream; the session's
    findings ride on the report (``report.sanitizer``) into ``--json`` and
    the rendered output.  A :class:`~repro.sim.engine.DeadlockError`
    escaping a sanitized driver is re-raised with the findings appended to
    its message — the captured traceback then carries the diagnosis
    (which members diverged, at which round, in which scope) instead of
    just the list of hung processes.
    """
    from repro.sim.engine import DeadlockError, use_backend

    with use_backend(scenario.backend or "auto"):
        if scenario.sanitize is None:
            return spec.driver(scenario)
        from repro.sanitize.checker import SanitizerSession, render_findings

        with SanitizerSession(scenario.sanitize) as session:
            try:
                report = spec.driver(scenario)
            except DeadlockError as exc:
                lines = render_findings(session.findings())
                if lines:
                    exc.args = (
                        str(exc)
                        + "\nsanitizer findings:\n"
                        + "\n".join(f"  {line}" for line in lines),
                    )
                raise
    report.sanitizer = session.summary()
    return report


def execute_point(
    exp_id: str,
    scenario: Scenario,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    attempt: int = 1,
) -> PointResult:
    """Run one (experiment, scenario) point: cache lookup, driver, store.

    This is the only place a driver is invoked — in-process sweeps, pool
    workers, the CLI and the registry all come through here, so caching
    and error capture behave identically everywhere.  ``attempt`` is the
    1-based attempt number under the caller's retry policy; it selects
    which fault-plan rules fire and is recorded on the result.
    """
    spec = get_spec(exp_id)
    desc = scenario.describe()
    cdir = Path(cache_dir) if cache_dir is not None else cache.default_cache_dir()
    path = cache.cache_path(cdir, exp_id, scenario)
    claim: Optional[cache.CacheClaim] = None
    if use_cache:
        report = cache.cache_load(path)
        if report is None:
            claim = cache.CacheClaim(path)
            if claim.acquire():
                # A rival may have published and released the claim
                # between our miss and our acquire: look once more.
                report = cache.cache_load(path)
            else:
                report, _ = cache.await_claimed_result(path, claim)
        if report is not None:
            if claim is not None:
                claim.release()
            return PointResult(
                exp_id, scenario, report=report, cached=True, attempts=attempt
            )
    try:
        try:
            faults.apply_driver_faults(exp_id, desc, attempt)
            report = _run_driver(spec, scenario)
        except Exception as exc:
            import traceback  # only a failed point formats one

            kind = KIND_TRANSIENT if isinstance(exc, TransientPointError) else KIND_ERROR
            return PointResult(
                exp_id, scenario, error=traceback.format_exc(),
                error_kind=kind, attempts=attempt,
            )
        report.scenario = scenario.to_dict()
        report_json: Optional[str] = None
        if use_cache:
            # A cache-store failure (read-only dir, full disk) must not
            # turn a finished report into a failed point — or, worse,
            # abort the whole sweep and lose every sibling's result.  The
            # CLI's contract is that partial results always reach the
            # merged report/JSON output; the cache is an optimization, so
            # degrade to uncached and warn.
            try:
                report_json = cache.cache_store(path, report, exp_id, desc)
            except OSError as exc:
                print(
                    f"warning: could not write result cache entry {path}: {exc}",
                    file=sys.stderr,
                )
        return PointResult(
            exp_id, scenario, report=report, attempts=attempt,
            report_json=report_json,
        )
    finally:
        if claim is not None:
            claim.release()


# -- pool entry ----------------------------------------------------------


@dataclass(frozen=True)
class WorkItem:
    """Picklable pool payload: the scenario travels as its dict form.

    The parent's ``code_version`` travels with the payload and pins the
    worker's memo: under the ``spawn`` start method a fresh interpreter
    would otherwise recompute the digest from the filesystem mid-run, so
    a source edit during a parallel sweep could split one run across two
    cache keys (and mix results from two code states).  A fault plan
    needs no field: ``$REPRO_FAULT_PLAN`` survives both start methods.
    """

    exp_id: str
    scenario: Dict[str, Any]
    use_cache: bool = True
    cache_dir: Optional[str] = None
    code_version: Optional[str] = None
    attempt: int = 1


@dataclass(frozen=True)
class WorkerReply:
    """Picklable pool result: the report travels as its JSON form."""

    exp_id: str
    report_json: Optional[str] = None
    error: Optional[str] = None
    cached: bool = False
    error_kind: Optional[str] = None


def worker_main(item: WorkItem) -> WorkerReply:
    """Top-level (picklable) pool entry."""
    if item.code_version:
        cache.pin_code_version(item.code_version)
    faults.IN_WORKER = True  # kill faults may really take this process down
    result = execute_point(
        item.exp_id,
        Scenario.from_dict(item.scenario),
        use_cache=item.use_cache,
        cache_dir=Path(item.cache_dir) if item.cache_dir else None,
        attempt=item.attempt,
    )
    if result.report is None:
        return WorkerReply(
            result.exp_id, error=result.error, cached=result.cached,
            error_kind=result.error_kind,
        )
    # Ship the JSON form: ExperimentReport is plain data either way, and
    # JSON keeps the parent <-> worker contract identical to the cache.
    # A computed point ships the text just written to the cache.
    return WorkerReply(
        result.exp_id,
        report_json=result.report_json or result.report.to_json(),
        cached=result.cached,
    )


# -- the pool ------------------------------------------------------------

_PARENT_POLL_S = 0.5


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent process is gone.

    A worker holds its own end of the call-queue pipe, so a parent killed
    with SIGKILL never gives it EOF and it would idle forever.  A daemon
    thread notices the re-parenting instead.  The parent at start-up is
    the pool's creator under ``fork`` and ``spawn`` (under ``forkserver``
    it is the server, which exits with the creator).
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


class WorkerPool:
    """The sweep's process pool, with crash-tolerant submit and teardown.

    The only construction site for ``ProcessPoolExecutor`` in the
    codebase (SAN109): the sweep service asks for a pool of ``max_workers``
    and gets submit/kill/restart semantics that survive worker death.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers
        self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        # Imported here, not at module top: an in-process sweep never loads
        # the pool's modules (concurrent.futures.process, multiprocessing).
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_exit_with_parent
        )

    def submit(self, item: WorkItem) -> Future:
        """Submit one work item; recycles the pool if a worker just died."""
        from concurrent.futures.process import BrokenProcessPool

        while True:
            try:
                return self._pool.submit(worker_main, item)
            except BrokenProcessPool:
                # A worker died between the last drain and this submit;
                # recycle the pool and resubmit.
                self.restart()

    def kill(self) -> None:
        """Tear down a pool whose workers may be stuck (best effort)."""
        for proc in list(getattr(self._pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except (OSError, ValueError):
                pass  # already dead/closed: that is the goal
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError):
            pass  # pool already broken; nothing left to tear down

    def restart(self) -> None:
        self.kill()
        self._pool = self._new_pool()

    def shutdown(self) -> None:
        """End a pool whose futures have all settled, and wait for it.

        Waiting joins the executor's manager thread here.  Left running
        (``wait=False``), it may still be closing its wake-up pipe when
        the interpreter's exit hook writes to that pipe, which prints an
        ``OSError`` traceback at exit.
        """
        self._pool.shutdown(wait=True)
