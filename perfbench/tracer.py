"""Outside-in span recorder for one ``repro-experiments`` invocation.

:func:`install` wraps the public functions of each layer of the
``repro`` package *from outside the package*: nothing under ``src/``
knows it is being traced.  Every wrapped call is a span.  Spans are
aggregated in memory per process (calls, time of the outermost span of
each name, self time = duration minus the time covered by child spans);
a few coarse spans (``cli.main``, ``service.run``, ``execute_point``,
``aggregate.reports``) are also kept whole, with their start and end on
the system-wide monotonic clock, so the benchmark can line up the
points that pool workers ran against the parent's sweep.

Pool workers are forked, so they inherit the wrappers.  Each worker
starts from an empty record after the fork and writes its own file when
it exits; the parent writes when the CLI returns.  One file per process,
``trace-<pid>.json``, lands in the directory the caller names.
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "install"]

_now = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes

#: Spans whose start/end are kept, not just aggregated.
KEPT = ("cli.main", "service.run", "execute_point", "aggregate.reports")


class Tracer:
    """In-memory span aggregate of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[List[int]] = []  # per open span: [child ns]
        self.depth: Dict[str, int] = {}
        self.layers: Dict[str, List[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: Dict[str, int] = {}
        self.spans: List[list] = []  # [name, t0, t1, attrs]
        self.simt_pending: Dict[int, Any] = {}  # id -> unread WarpRunResult

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Time every call of ``fn`` as a span called ``name``.

        ``after(result, args, kwargs, attrs)`` runs once the span has
        closed, so its own cost is not charged to the layer; it may fill
        ``attrs``, which are stored with a kept span.
        """
        keep = name in KEPT

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            self.stack.append(frame)
            depth = self.depth.get(name, 0)
            self.depth[name] = depth + 1
            ok = False
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = _now()
                self.depth[name] = depth
                self.stack.pop()
                dur = t1 - t0
                if self.stack:
                    self.stack[-1][0] += dur
                layer = self.layers.setdefault(name, [0, 0, 0])
                layer[0] += 1
                layer[2] += dur - frame[0]
                if depth == 0:
                    layer[1] += dur
            attrs: Dict[str, Any] = {}
            if ok and after is not None:
                after(result, args, kwargs, attrs)
            if keep:
                self.spans.append([name, t0, t1, attrs])
            return result

        return wrapper

    def drain_simt(self) -> None:
        """Fold the counters of finished warp runs into the counts."""
        for res in self.simt_pending.values():
            self.count("simt.fused_rounds", res.fused_rounds)
            self.count("simt.defuse_count", res.defuse_count)
            self.count("simt.refuse_count", res.refuse_count)
        self.simt_pending.clear()

    # -- output ----------------------------------------------------------

    def flush(self) -> None:
        if self.pid != os.getpid():
            return
        self.drain_simt()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        data = {
            "pid": self.pid,
            "layers": self.layers,
            "counts": self.counts,
            "spans": self.spans,
        }
        tmp = self.out_dir / f".trace-{self.pid}.tmp"
        tmp.write_text(json.dumps(data))
        tmp.replace(self.out_dir / f"trace-{self.pid}.json")

    def _after_fork(self) -> None:
        # Runs in a freshly forked pool worker, after multiprocessing has
        # cleared the finalizers inherited from the parent.
        self._reset()
        mp_util.Finalize(self, self.flush, exitpriority=10)


def _patch(owner: Any, attr: str, tracer: Tracer, name: str,
           after: Optional[Callable[..., None]] = None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))


def _patch_method(cls: type, attr: str, tracer: Tracer, name: str,
                  after: Optional[Callable[..., None]] = None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, after))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the ``repro`` package."""
    from repro.experiments import exp_reduction, registry
    from repro.experiments.base import ExperimentReport
    from repro.experiments.journal import SweepJournal
    from repro.experiments.service import SweepService, cache, scheduler, workers
    from repro.experiments.service.aggregate import ReportAggregator
    from repro.reduction import baselines, device
    from repro.sim import backends
    from repro.sim.backends.analytic import AnalyticBackend
    from repro.sim.engine import Engine
    from repro.sim.exec_thread import WarpExecutor
    from repro.sync.scope import BarrierScope

    t = tracer

    # service: the sweep and what it reports about itself
    def after_run(results: Any, args: Any, kwargs: Any, attrs: Dict) -> None:
        service = args[0]
        attrs["jobs"] = service.jobs
        t.count("service.retries", sum(r.retries for r in results))
        t.count("service.steals", service.stats.steals)
        t.count("workers.slab_points", service.stats.slab_points)
        t.count("workers.pickle_bytes_avoided", service.stats.pickle_bytes_avoided)

    _patch_method(SweepService, "run", t, "service.run", after_run)

    def after_point(result: Any, args: Any, kwargs: Any, attrs: Dict) -> None:
        t.count("cache.hits" if result.cached else "cache.misses")

    # run_serial calls the scheduler module's binding, pool workers the
    # workers module's; both are the same function.
    _patch(workers, "execute_point", t, "execute_point", after_point)
    _patch(scheduler, "execute_point", t, "execute_point", after_point)

    # cache
    def after_load(report: Any, args: Any, kwargs: Any, attrs: Dict) -> None:
        if report is not None:
            t.count("cache.bytes_read", os.stat(args[0]).st_size)

    def after_store(result: Any, args: Any, kwargs: Any, attrs: Dict) -> None:
        t.count("cache.bytes_written", os.stat(args[0]).st_size)

    _patch(cache, "cache_load", t, "cache.load", after_load)
    _patch(cache, "cache_store", t, "cache.store", after_store)
    _patch(cache, "await_claimed_result", t, "cache.claim_wait")
    _patch(cache, "code_version", t, "cache.code_version")

    # journal, serialization, aggregation
    _patch_method(SweepJournal, "_write", t, "journal.write")

    def after_to_json(text: str, args: Any, kwargs: Any, attrs: Dict) -> None:
        t.count("serialize.bytes", len(text))

    def after_from_json(report: Any, args: Any, kwargs: Any, attrs: Dict) -> None:
        t.count("serialize.bytes", len(args[1]))

    _patch_method(ExperimentReport, "to_json", t, "serialize.to_json", after_to_json)
    _patch_method(ExperimentReport, "from_json", t, "serialize.from_json",
                  after_from_json)
    _patch_method(ReportAggregator, "add", t, "aggregate.add")
    _patch_method(ReportAggregator, "reports", t, "aggregate.reports")

    # drivers: one layer name per experiment
    def after_driver(report: Any, args: Any, kwargs: Any, attrs: Dict) -> None:
        t.drain_simt()

    for spec in registry.EXPERIMENTS.values():
        object.__setattr__(
            spec, "driver", t.wrap(f"driver.{spec.id}", spec.driver, after_driver)
        )

    # backends: analytic closed forms, the engine path, and fallbacks
    _patch_method(AnalyticBackend, "run_rounds", t, "backend.analytic")
    _patch_method(BarrierScope, "_run_rounds_engine", t, "backend.engine")
    dispatch = backends.dispatch

    def counted_dispatch(scope: Any, n_syncs: int, members: Any, choice: Any,
                         collect_trace: bool = True) -> Any:
        before = t.layers.get("backend.engine", [0])[0]
        run = dispatch(scope, n_syncs, members, choice, collect_trace)
        fell_back = t.layers.get("backend.engine", [0])[0] > before
        if isinstance(choice, str) and choice != "engine" and fell_back:
            t.count("backend.fallbacks")
        return run

    backends.dispatch = counted_dispatch  # looked up at call time by run_rounds

    # engine
    engine_init = Engine.__init__

    def counted_init(self: Any, *args: Any, **kwargs: Any) -> None:
        t.count("engine.instances")
        engine_init(self, *args, **kwargs)

    Engine.__init__ = counted_init  # type: ignore[method-assign]
    engine_run = Engine.run

    def counted_run(self: Any, *args: Any, **kwargs: Any) -> float:
        before = self.event_count
        try:
            return engine_run(self, *args, **kwargs)
        finally:
            t.count("engine.events", self.event_count - before)

    Engine.run = t.wrap("engine.run", counted_run)  # type: ignore[method-assign]

    # SIMT warp executor: every warp goes through start(); run() is the
    # standalone form that also drives the engine.
    simt_start = WarpExecutor.start

    def counted_start(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = simt_start(self, *args, **kwargs)
        t.count("simt.runs")
        # Block executors pass one shared result to all their warps.
        t.simt_pending[id(result)] = result
        return result

    WarpExecutor.start = counted_start  # type: ignore[method-assign]
    _patch_method(WarpExecutor, "run", t, "simt.run")

    # sync scopes
    _patch_method(BarrierScope, "run_rounds", t, "sync.run_rounds")

    # reduction: inputs, the two reduction pipelines (the baselines reuse
    # the implicit one through their own import), and the Fig 15 sweep
    _patch(device, "make_input", t, "reduction.make_input")
    _patch(device, "reduce_implicit", t, "reduction.reduce")
    _patch(device, "reduce_grid_sync", t, "reduction.reduce")
    _patch(baselines, "reduce_implicit", t, "reduction.reduce")
    _patch(exp_reduction, "latency_vs_size", t, "reduction.latency_vs_size")

    mp_util.register_after_fork(tracer, Tracer._after_fork)
