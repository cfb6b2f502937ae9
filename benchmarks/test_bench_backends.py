"""Engine-vs-analytic backends: the paper's hot sync sweeps under each one.

Each sweep runs once per execution backend on the V100.  The analytic
backend's signature is a zero event count: eligible sweeps build their
groups' engines but never enter the event loop.

Fig 4 carries no analytic-eligible scopes (its block ladders are
measured through the cudasim pipeline), so both of its rows exercise the
engine path; it rides along as the control showing the dispatcher
changes nothing where it has nothing to do.
"""

from __future__ import annotations

import pytest

from repro.experiments.exp_sync import run_fig4, run_fig5, run_sync_methods
from repro.experiments.scenario import Scenario
from repro.sim.engine import Engine

BACKENDS = ("engine", "analytic")


def _scenario(backend):
    return Scenario(gpus=("V100",), backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig5_backend(monkeypatch, backend):
    engines = []
    engine_init = Engine.__init__

    def recording_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", recording_init)
    report = run_fig5(_scenario(backend))
    assert report.backend == backend
    assert report.mean_rel_err < 0.10
    # Every cell builds its group's engine; only the engine backend
    # dispatches events on them.
    assert engines
    events = sum(e.event_count for e in engines)
    if backend == "analytic":
        assert events == 0
    else:
        assert events > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sync_methods_backend(backend):
    report = run_sync_methods(_scenario(backend))
    assert report.backend == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig4_backend(backend):
    # fig4 honors the knob but has no analytic-eligible sweeps: both
    # parametrizations run (and must agree on) the engine path.
    report = run_fig4(_scenario(backend))
    assert report.mean_rel_err < 0.05
