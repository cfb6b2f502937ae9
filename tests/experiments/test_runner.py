"""Tests for the execution layer: single entry path, cache, parallelism."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.experiments.scenario import Scenario
from repro.experiments.service import (
    ExperimentError,
    SweepService,
    execute_point,
    run_all,
    run_experiment,
)
from repro.experiments.service import cache as service_cache
from repro.experiments.service import workers as service_workers

# A fast subset covering single- and multi-GPU drivers.
FAST_IDS = ["table1", "table4", "fig8", "deadlock"]


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


class TestCodeVersion:
    def test_stable_within_process(self):
        assert service_cache.code_version() == service_cache.code_version()

    def test_is_hex_digest(self):
        v = service_cache.code_version()
        assert len(v) == 16
        int(v, 16)


class TestExecutePoint:
    def test_runs_and_stamps_scenario(self, cache_dir):
        scen = Scenario(gpus=("V100",))
        res = execute_point("table4", scen, cache_dir=cache_dir)
        assert res.ok and not res.cached
        assert res.report.scenario == scen.to_dict()

    def test_cache_round_trip_is_lossless(self, cache_dir):
        scen = Scenario(gpus=("V100",))
        fresh = execute_point("table4", scen, cache_dir=cache_dir)
        hit = execute_point("table4", scen, cache_dir=cache_dir)
        assert hit.cached
        assert hit.report == fresh.report
        assert hit.report.render() == fresh.report.render()

    def test_no_cache_bypasses_store_and_load(self, cache_dir):
        scen = Scenario(gpus=("V100",))
        execute_point("table4", scen, use_cache=False, cache_dir=cache_dir)
        assert not cache_dir.exists()  # nothing stored
        res = execute_point("table4", scen, use_cache=False, cache_dir=cache_dir)
        assert not res.cached

    def test_cache_key_includes_scenario_hash(self, cache_dir):
        execute_point("table4", Scenario(gpus=("V100",)), cache_dir=cache_dir)
        execute_point("table4", Scenario(gpus=("P100",)), cache_dir=cache_dir)
        assert len(list(cache_dir.glob("table4-*.json"))) == 2

    def test_cache_key_includes_code_version(self, cache_dir, monkeypatch):
        scen = Scenario(gpus=("V100",))
        execute_point("table4", scen, cache_dir=cache_dir)
        monkeypatch.setattr(service_cache, "_CODE_VERSION", "deadbeefdeadbeef")
        res = execute_point("table4", scen, cache_dir=cache_dir)
        assert not res.cached  # old entry invisible under the new version

    @pytest.mark.parametrize("garbage", ["{not json", "[1, 2, 3]", '{"a": 1}'])
    def test_corrupt_cache_entry_recomputed(self, cache_dir, garbage):
        scen = Scenario(gpus=("V100",))
        first = execute_point("table4", scen, cache_dir=cache_dir)
        [path] = list(cache_dir.glob("table4-*.json"))
        path.write_text(garbage)
        res = execute_point("table4", scen, cache_dir=cache_dir)
        assert res.ok and not res.cached
        assert res.report == first.report

    def test_driver_failure_captured_not_raised(self, cache_dir, monkeypatch):
        from dataclasses import replace

        from repro.experiments import registry

        def boom(scenario):
            raise RuntimeError("driver exploded")

        monkeypatch.setitem(
            registry.EXPERIMENTS, "table4", replace(get_spec("table4"), driver=boom)
        )
        res = execute_point("table4", Scenario(gpus=("V100",)), cache_dir=cache_dir)
        assert not res.ok
        assert "driver exploded" in res.error
        # failures are never cached
        assert not list(cache_dir.glob("table4-*.json")) if cache_dir.exists() else True

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            execute_point("nope", Scenario())


class TestRunPoints:
    def test_serial_parallel_cached_byte_identical(self, cache_dir):
        points = [
            (e, s) for e in FAST_IDS for s in EXPERIMENTS[e].default_scenarios
        ]
        serial = SweepService(jobs=1, use_cache=False).run(points)
        parallel = SweepService(jobs=2, use_cache=True, cache_dir=cache_dir).run(points)
        cached = SweepService(jobs=1, use_cache=True, cache_dir=cache_dir).run(points)
        assert all(r.cached for r in cached)
        for a, b, c in zip(serial, parallel, cached):
            assert a.report == b.report == c.report
            assert a.report.render() == b.report.render() == c.report.render()
            assert a.report.to_json() == b.report.to_json() == c.report.to_json()

    def test_results_in_input_order(self, cache_dir):
        points = [
            ("table4", Scenario(gpus=("P100",))),
            ("table1", Scenario(gpus=("V100",))),
            ("table4", Scenario(gpus=("V100",))),
        ]
        results = SweepService(jobs=2, cache_dir=cache_dir).run(points)
        assert [(r.exp_id, r.scenario) for r in results] == points

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            SweepService(jobs=0)


class TestExperimentApi:
    def test_run_experiment_merges_default_scenarios(self, cache_dir):
        rep = run_experiment("table4", cache_dir=cache_dir)
        labels = [r.label for r in rep.rows]
        assert any(l.startswith("V100") for l in labels)
        assert any(l.startswith("P100") for l in labels)
        assert rep.title == get_spec("table4").title
        assert len(rep.scenario["points"]) == 2

    def test_run_experiment_custom_scenario(self, cache_dir):
        rep = run_experiment(
            "table4", scenarios=[Scenario(gpus=("P100",))], cache_dir=cache_dir
        )
        assert all(r.label.startswith("P100") for r in rep.rows)

    def test_run_all_paper_order_and_selection(self, cache_dir):
        reps = run_all(ids=["table4", "table1"], cache_dir=cache_dir)
        assert [r.exp_id for r in reps] == ["table4", "table1"]

    def test_run_all_aggregates_failures(self, cache_dir, monkeypatch):
        from dataclasses import replace

        from repro.experiments import registry

        def boom(scenario):
            raise RuntimeError("kaput")

        monkeypatch.setitem(
            registry.EXPERIMENTS, "table4", replace(get_spec("table4"), driver=boom)
        )
        with pytest.raises(ExperimentError, match="kaput"):
            run_all(ids=["table4"], cache_dir=cache_dir)

    def test_registry_delegates_to_runner(self):
        """run_experiment and run_all share the single entry path."""
        from repro.experiments.service import scheduler as service_scheduler

        calls = []

        def spy(exp_id, scenario, **kw):
            calls.append(exp_id)
            return execute_point(exp_id, scenario, **kw)

        import unittest.mock as mock

        # The in-process path resolves execute_point through the scheduler
        # module, which is where both must end up.
        with mock.patch.object(
            service_scheduler, "execute_point", side_effect=spy
        ):
            run_experiment("table4")
            run_all(ids=["table1"])
        assert calls == ["table4", "table4", "table1"]

    def test_empty_scenario_list_rejected_before_dispatch(self, monkeypatch):
        from repro.experiments.service import scheduler as service_scheduler

        def never(*args, **kw):  # pragma: no cover - the assertion
            raise AssertionError("nothing may be dispatched")

        monkeypatch.setattr(service_scheduler, "execute_point", never)
        with pytest.raises(ValueError, match="no reports to merge for 'table4'"):
            run_all(ids=["table4"], scenarios=[])
        with pytest.raises(ValueError, match="no reports to merge for 'table4'"):
            run_experiment("table4", scenarios=[])


class TestWorkerCodeVersion:
    def test_pool_worker_pins_parent_code_version(self, cache_dir, monkeypatch):
        """Workers use the version shipped in the payload, never their own
        filesystem digest — a source edit during a parallel run must not
        split one run across two cache keys (the spawn start method would
        otherwise recompute mid-run)."""
        from repro.experiments import faults

        monkeypatch.setattr(service_cache, "_CODE_VERSION", None)
        # worker_main flips the worker marker; restore it so later
        # in-process fault tests keep the kill-downgrade behaviour.
        monkeypatch.setattr(faults, "IN_WORKER", False)
        sentinel = "feedfacefeedface"
        scen = Scenario(gpus=("V100",))
        out = service_workers.worker_main(
            service_workers.WorkItem(
                exp_id="table4", scenario=scen.to_dict(), use_cache=True,
                cache_dir=str(cache_dir), code_version=sentinel,
            )
        )
        assert out.exp_id == "table4" and out.report_json is not None
        assert service_cache._CODE_VERSION == sentinel
        assert list(cache_dir.glob(f"table4-*-{sentinel}.json"))

    def test_run_points_ships_version_with_payload(self, cache_dir, monkeypatch):
        import concurrent.futures
        from concurrent.futures import Future

        from repro.experiments import faults

        monkeypatch.setattr(faults, "IN_WORKER", False)
        captured = {}
        real_worker = service_workers.worker_main

        def fake_worker(item):
            captured["version"] = item.code_version
            return real_worker(item)

        # jobs=2 engages the supervised pool path; run in-process (futures
        # resolve at submit time) to observe the payload.
        class FakePool:
            def __init__(self, max_workers, initializer=None):
                pass

            def submit(self, fn, payload):
                fut = Future()
                try:
                    fut.set_result(fn(payload))
                except BaseException as exc:  # pragma: no cover - safety
                    fut.set_exception(exc)
                return fut

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        # WorkerPool looks the executor up when it builds a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(service_workers, "worker_main", fake_worker)
        points = [("table4", Scenario(gpus=("V100",))), ("table4", Scenario(gpus=("P100",)))]
        results = SweepService(jobs=2, cache_dir=cache_dir).run(points)
        assert all(r.ok for r in results)
        assert captured["version"] == service_cache.code_version()


class TestCanonicalExtrasShareCache:
    def test_equivalent_extra_spellings_hit_one_entry(self, cache_dir):
        a = Scenario(gpus=("V100",), extras=(("knob", "10"),))
        b = Scenario(gpus=("V100",), extras=(("knob", "010"),))
        first = execute_point("table4", a, cache_dir=cache_dir)
        second = execute_point("table4", b, cache_dir=cache_dir)
        assert not first.cached and second.cached
        assert len(list(cache_dir.glob("table4-*.json"))) == 1


class TestCodeVersionMemoized:
    def test_source_walk_happens_at_most_once_per_process(self, monkeypatch):
        """The source-tree hash is expensive (every repro/**/*.py); the
        sweep service must compute it once per process, not once per entry."""
        from pathlib import Path

        monkeypatch.setattr(service_cache, "_CODE_VERSION", None)
        walks = {"n": 0}
        real_rglob = Path.rglob

        def counting_rglob(self, pattern):
            walks["n"] += 1
            return real_rglob(self, pattern)

        monkeypatch.setattr(Path, "rglob", counting_rglob)
        v1 = service_cache.code_version()
        v2 = service_cache.code_version()
        service_cache.cache_path(Path("/tmp/c"), "table4", Scenario(gpus=("V100",)))
        service_cache.cache_path(Path("/tmp/c"), "table4", Scenario(gpus=("P100",)))
        assert v1 == v2
        assert walks["n"] == 1


class TestBackendCacheIsolation:
    """A backend choice must never collide with another backend's cache
    entry: the backend rides in the scenario's canonical form, so it is
    part of the content-addressed key."""

    def test_backend_scenarios_get_distinct_cache_entries(self, cache_dir):
        base = Scenario(gpus=("V100",))
        ana = Scenario(gpus=("V100",), backend="auto")
        eng = Scenario(gpus=("V100",), backend="engine")
        paths = {
            service_cache.cache_path(cache_dir, "fig8", s) for s in (base, ana, eng)
        }
        assert len(paths) == 3

    def test_analytic_run_does_not_poison_default_cache(self, cache_dir):
        ana = execute_point(
            "fig8", Scenario(gpus=("V100",), backend="auto"),
            cache_dir=cache_dir,
        )
        default = execute_point(
            "fig8", Scenario(gpus=("V100",)), cache_dir=cache_dir
        )
        assert ana.ok and default.ok
        assert not default.cached  # computed fresh, not served from auto
        assert ana.report.scenario["backend"] == "auto"
        assert "backend" not in default.report.scenario
        # Same physics either way: the reports' rows agree bit-for-bit.
        assert ana.report.rows == default.report.rows
