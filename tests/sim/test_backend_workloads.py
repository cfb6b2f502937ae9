"""Engine-vs-auto backends: the paper's hot sync sweeps under each one.

Each sweep runs once per execution backend on the V100, through
``execute_point`` so that its report carries the backend provenance the
sweep service measures.  Under ``auto`` the analytic closed forms leave a
zero event count: eligible sweeps build their groups' engines but never
enter the event loop.

Fig 4 dispatches no barrier ladder: its block-sync pipe resolves without
the backend dispatcher (and, since its pipes skip the event loop, without
engine events).  It rides along as the control: the backend knob changes
nothing there, and its report says so instead of claiming a backend.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import Scenario
from repro.experiments.service import execute_point
from repro.sim.engine import Engine

BACKENDS = ("engine", "auto")


def _run(exp_id, backend):
    res = execute_point(
        exp_id, Scenario(gpus=("V100",), backend=backend), use_cache=False
    )
    assert res.ok, res.error
    return res.report


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig5_backend(monkeypatch, backend):
    engines = []
    engine_init = Engine.__init__

    def recording_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", recording_init)
    report = _run("fig5", backend)
    assert report.backend == backend
    assert report.mean_rel_err < 0.10
    # Every cell builds its group's engine; only the engine backend
    # dispatches events on them.
    assert engines
    events = sum(e.event_count for e in engines)
    if backend == "auto":
        assert events == 0
    else:
        assert events > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sync_methods_backend(backend):
    report = _run("sync_methods", backend)
    assert report.backend == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig4_backend(backend):
    report = _run("fig4", backend)
    assert report.mean_rel_err < 0.05
    assert report.backend is None
    assert report.notes[-1] == (
        f"backend={backend} requested but fig4 dispatched no barrier ladder under it"
    )
