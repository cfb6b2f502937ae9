"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper on the
simulated machines.  pytest-benchmark times the *regeneration harness*
(simulation + measurement pipeline); the reproduced values and their
paper-vs-measured errors are attached to ``benchmark.extra_info`` so the
JSON artifact doubles as a reproduction record.

Opt-in trajectory artifact: ``--bench-json PATH`` additionally writes a
compact best-of-N record — ``{bench id: {ms, events, backend}}`` — for
benches that call :func:`record_timing`.  CI runs the backend benches
with ``--bench-json=BENCH_pr7.json`` and uploads the file, so the
engine-vs-analytic speedup has a machine-readable history.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional

def _records(config) -> Dict[str, Dict[str, object]]:
    """bench id -> {"ms", "events", "backend"}, flushed at session end.

    Kept on the shared ``config`` object (not a module global): pytest
    imports this conftest under its own module name, so tests importing
    ``benchmarks.conftest`` would otherwise fill a *different* module
    instance's global than the one ``pytest_sessionfinish`` reads.
    """
    if not hasattr(config, "_bench_json_records"):
        config._bench_json_records = {}
    return config._bench_json_records


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "write best-of-N timings of the instrumented benches to PATH "
            "as {bench id: {ms, events, backend}}"
        ),
    )


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    records = _records(session.config)
    if path and records:
        Path(path).write_text(
            json.dumps(records, indent=2, sort_keys=True) + "\n"
        )


def count_engine_events(fn: Callable[[], object]) -> int:
    """Run ``fn`` once and return the total DES events it dispatched.

    Instruments Engine construction so engines created anywhere inside
    the call are tallied — drivers build one engine per scope.  A low
    count is the analytic backend's perf evidence: eligible sweeps never
    enter the event loop at all.
    """
    from repro.sim.engine import Engine

    engines = []
    orig_init = Engine.__init__

    def counting_init(self, *a, **k):
        orig_init(self, *a, **k)
        engines.append(self)

    Engine.__init__ = counting_init
    try:
        fn()
    finally:
        Engine.__init__ = orig_init
    return sum(e.event_count for e in engines)


def record_timing(
    request,
    benchmark,
    bench_id: str,
    backend: str,
    events: Optional[int] = None,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Record this bench's best-of-N wall time for ``--bench-json``.

    No-op unless the option was given, so the plain benchmark run stays
    untouched.  ``events`` is the DES event count of one harness pass
    (see :func:`count_engine_events`); ``None`` omits counting.
    ``extra`` merges additional bench-specific counters into the record
    (e.g. the sweep service's point counts) without widening the shared
    schema — reserved keys cannot be overridden.
    """
    path = request.config.getoption("--bench-json", default=None)
    if not path:
        return
    stats = benchmark.stats.stats  # pytest-benchmark Metadata -> Stats
    record: Dict[str, object] = dict(extra or {})
    record.update({
        "ms": round(stats.min * 1e3, 3),
        "events": events,
        "backend": backend,
    })
    _records(request.config)[bench_id] = record


def attach_report(benchmark, report) -> None:
    """Attach an ExperimentReport's summary to the benchmark record."""
    benchmark.extra_info["experiment"] = report.exp_id
    benchmark.extra_info["title"] = report.title
    if report.mean_rel_err is not None:
        benchmark.extra_info["mean_rel_err"] = round(report.mean_rel_err, 4)
        benchmark.extra_info["max_rel_err"] = round(report.max_rel_err, 4)
    benchmark.extra_info["rows"] = [
        {
            "label": r.label,
            "paper": r.paper,
            "measured": None if r.measured is None else round(r.measured, 4),
            "unit": r.unit,
        }
        for r in report.rows[:40]
    ]
