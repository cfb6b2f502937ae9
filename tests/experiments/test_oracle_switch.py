"""The oracle switch: ``--backend engine`` turns every shortcut off.

``execute_point`` sets a point's ``scenario.backend`` as the process-wide
backend around its driver (:func:`repro.sim.engine.use_backend`).  Every
exact shortcut consults one predicate,
:func:`repro.sim.engine.shortcuts_allowed`: the analytic barrier ladders,
the SM pipe folds and replays, the host-timeline replay and the
warp-reduce latency memo.  So a registry run under ``engine`` runs every
simulation on the event loop and must report what the default run
reports, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.cudasim.timeline import HostTimeline
from repro.experiments import registry
from repro.experiments.base import ExperimentReport
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.experiments.scenario import Scenario
from repro.experiments.service import execute_point, run_all
from repro.experiments.service.workers import _run_driver
from repro.microbench import intra_sm
from repro.reduction.warp import _run_latency_cycles
from repro.sim import engine, sm
from repro.sim.backends import AnalyticBackend

#: Every shortcut, as (owner, attribute) of the function that runs it.
SHORTCUTS = [
    (AnalyticBackend, "run_rounds"),
    (sm, "_fold"),
    (sm, "_warp_pipe_end"),
    (sm, "_replay_lone"),
    (intra_sm, "_fold"),
    (intra_sm, "_replay_lone"),
    (HostTimeline, "run"),
]


def _default_points():
    return [
        (exp_id, scenario)
        for exp_id, spec in EXPERIMENTS.items()
        for scenario in spec.default_scenarios
    ]


def _run(exp_id, scenario, backend):
    res = execute_point(exp_id, replace(scenario, backend=backend), use_cache=False)
    assert res.ok, res.error
    return res.report


def _counted(monkeypatch):
    """Wrap every shortcut; returns the per-shortcut call counts."""
    calls = {}
    for owner, name in SHORTCUTS:
        key = f"{getattr(owner, '__name__', owner)}.{name}"
        calls[key] = 0
        fn = getattr(owner, name)

        def counting(*args, _fn=fn, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


class TestReach:
    def test_engine_backend_turns_every_shortcut_off(self, monkeypatch):
        calls = _counted(monkeypatch)
        points = _default_points()
        default = [_run(exp_id, scen, None) for exp_id, scen in points]
        # Every shortcut stands in somewhere in a default run ...
        assert all(calls.values()), calls
        calls.update(dict.fromkeys(calls, 0))
        memo = _run_latency_cycles.cache_info()
        oracle = [_run(exp_id, scen, "engine") for exp_id, scen in points]
        # ... and none of them, the memo included, runs under the engine.
        assert not any(calls.values()), calls
        after = _run_latency_cycles.cache_info()
        assert (after.hits, after.misses) == (memo.hits, memo.misses)
        for (exp_id, _), a, b in zip(points, default, oracle):
            assert (a.rows, a.artifacts, a.notes) == (b.rows, b.artifacts, b.notes), exp_id


class TestMutation:
    def test_broken_fold_changes_the_default_report_only(self, monkeypatch):
        """A fold one ulp off shows in the default ``table2`` report, and
        the ``engine`` report, which runs no fold, keeps its bytes."""

        def reports(backend):
            return [
                _run("table2", scen, backend).to_json()
                for scen in get_spec("table2").default_scenarios
            ]

        default, oracle = reports(None), reports("engine")
        fold = sm._fold
        monkeypatch.setattr(
            sm, "_fold", lambda service_ns, n: math.nextafter(fold(service_ns, n), math.inf)
        )
        assert reports(None) != default
        assert reports("engine") == oracle


def _switch_probe(scenario):
    """A driver that reports the backend it runs under."""
    report = ExperimentReport("table4", "switch probe")
    report.add(engine.BACKEND, None, None)
    return report


class TestScope:
    def test_choice_restored_after_a_driver_raises(self):
        seen = []

        def boom(scenario):
            seen.append(engine.BACKEND)
            raise RuntimeError("kaput")

        spec = replace(get_spec("table4"), driver=boom)
        with pytest.raises(RuntimeError, match="kaput"):
            _run_driver(spec, Scenario(backend="engine"))
        assert seen == ["engine"]
        assert engine.BACKEND == "auto" and engine.shortcuts_allowed()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_choice_holds_per_point(self, monkeypatch, jobs):
        monkeypatch.setitem(
            registry.EXPERIMENTS, "table4",
            replace(get_spec("table4"), driver=_switch_probe),
        )
        backends = ["engine", None, "engine", None, None, "engine"]
        scenarios = [
            Scenario(gpus=(gpu,), backend=backend)
            for gpu, backend in zip(("V100", "P100") * 3, backends)
        ]
        [report] = run_all(["table4"], jobs=jobs, scenarios=scenarios)
        assert [row.label for row in report.rows] == [b or "auto" for b in backends]
        assert engine.BACKEND == "auto"
