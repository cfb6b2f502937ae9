"""Engine-vs-auto backends: the paper's hot sync sweeps under each one.

Each sweep runs once per execution backend on the V100, through
``execute_point``, which sets the scenario's backend as the oracle switch
around the driver.  Under ``auto`` the exact shortcuts leave a zero event
count: eligible sweeps build their groups' engines but never enter the
event loop.  Under ``engine`` every simulation runs its events, and the
rows stay bit-identical.

Fig 4 dispatches no barrier ladder: its block-sync pipe resolves without
the backend dispatcher.  Under ``engine`` its pipes run their events too.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import Scenario
from repro.experiments.service import execute_point
from repro.sim.engine import Engine

BACKENDS = ("engine", "auto")


def _run(monkeypatch, exp_id, backend):
    """``exp_id``'s V100 report under ``backend`` and the events its
    engines ran."""
    engines = []
    engine_init = Engine.__init__

    def recording_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    with monkeypatch.context() as m:
        m.setattr(Engine, "__init__", recording_init)
        res = execute_point(
            exp_id, Scenario(gpus=("V100",), backend=backend), use_cache=False
        )
    assert res.ok, res.error
    assert res.report.scenario.get("backend") == backend
    return res.report, sum(e.event_count for e in engines)


def _check(monkeypatch, exp_id, backend):
    report, events = _run(monkeypatch, exp_id, backend)
    default, default_events = _run(monkeypatch, exp_id, None)
    assert default_events == 0
    assert (events > 0) == (backend == "engine")
    assert report.rows == default.rows
    assert report.artifacts == default.artifacts
    assert report.notes == default.notes
    return report


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig5_backend(monkeypatch, backend):
    assert _check(monkeypatch, "fig5", backend).mean_rel_err < 0.10


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sync_methods_backend(monkeypatch, backend):
    _check(monkeypatch, "sync_methods", backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig4_backend(monkeypatch, backend):
    assert _check(monkeypatch, "fig4", backend).mean_rel_err < 0.05
