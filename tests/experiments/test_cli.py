"""CLI failure-path regression tests: partial results must always land.

``repro-experiments --json`` feeds CI (the JSON artifact is uploaded
*especially* when the smoke step fails), so the contract pinned here is:
whenever a driver failure or a tolerance breach sets exit code 1, the
merged report — with every successful point's rows — is still written to
stdout as valid JSON, and diagnostics go to stderr only.  This is the
``keep partial results on failure`` path promised by
:class:`repro.experiments.service.ReportAggregator`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace

import pytest

from repro.experiments import registry
from repro.experiments.cli import main
from repro.experiments.registry import EXPERIMENTS


def _patch_driver(monkeypatch, exp_id, driver):
    monkeypatch.setitem(
        registry.EXPERIMENTS, exp_id, replace(EXPERIMENTS[exp_id], driver=driver)
    )


@pytest.fixture
def flaky_table5(monkeypatch):
    """table5 whose P100 point fails while the V100 point succeeds."""
    orig = EXPERIMENTS["table5"].driver

    def driver(scenario):
        if "P100" in scenario.gpus:
            raise RuntimeError("injected-p100-failure")
        return orig(scenario)

    _patch_driver(monkeypatch, "table5", driver)


class TestJsonPartialResults:
    def test_driver_failure_still_writes_merged_json(self, flaky_table5, capsys):
        assert main(["table5", "--json", "--no-cache"]) == 1
        out, err = capsys.readouterr()
        reports = json.loads(out)  # stdout must stay valid JSON
        assert [r["exp_id"] for r in reports] == ["table5"]
        # The merged report carries the surviving (V100) point's rows...
        assert reports[0]["rows"], "partial results were dropped"
        assert all("V100" in r["label"] for r in reports[0]["rows"])
        # ...and the scenario provenance of the successful point only.
        points = reports[0]["scenario"]["points"]
        assert [p["gpus"] for p in points] == [["V100"]]
        # Diagnostics stay on stderr, out of the JSON stream.
        assert "injected-p100-failure" in err

    def test_driver_failure_parallel_jobs(self, flaky_table5, capsys):
        assert main(["table5", "--json", "--no-cache", "--jobs", "2"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["rows"]

    def test_all_points_failing_writes_empty_array(self, monkeypatch, capsys):
        def boom(scenario):
            raise RuntimeError("boom")

        _patch_driver(monkeypatch, "table5", boom)
        assert main(["table5", "--json", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert json.loads(out) == []

    def test_tolerance_breach_still_writes_json(self, monkeypatch, capsys):
        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "table4",
            replace(EXPERIMENTS["table4"], tolerance=-1.0),
        )
        assert main(["table4", "--json", "--no-cache"]) == 1
        out, err = capsys.readouterr()
        reports = json.loads(out)
        assert [r["exp_id"] for r in reports] == ["table4"]
        assert reports[0]["rows"]
        assert "exceeded tolerance" in err

    def test_failure_alongside_healthy_experiment(self, flaky_table5, capsys):
        # A failing experiment must not take its siblings' reports down.
        assert main(["table5", "table4", "--json", "--no-cache"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["exp_id"] for r in reports] == ["table5", "table4"]


class TestCacheStoreFailure:
    def test_unwritable_cache_dir_degrades_to_uncached(self, tmp_path, capsys):
        # Regression: an OSError from the cache store used to abort the
        # whole sweep (losing every result); it must degrade to a warning.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        bad_dir = blocker / "cache"
        assert main(["table4", "--json", "--cache-dir", str(bad_dir)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)[0]["exp_id"] == "table4"
        assert "could not write result cache entry" in err


class TestWorkerCrashIsolation:
    """A worker that dies mid-sweep must not take sibling results with it.

    This extends the partial-results contract above from driver
    *exceptions* to driver *crashes*: the process is simply gone
    (``os._exit``), the pool breaks, and the merged ``--json`` report
    must still carry every surviving point's rows.
    """

    @pytest.fixture
    def crashing_table5(self, monkeypatch):
        """table5 whose P100 point kills its worker outright, every time."""
        import os as _os

        orig = EXPERIMENTS["table5"].driver

        def driver(scenario):
            if "P100" in scenario.gpus:
                _os._exit(1)
            return orig(scenario)

        _patch_driver(monkeypatch, "table5", driver)

    def test_crash_does_not_lose_siblings_and_json_lands(
        self, crashing_table5, capsys
    ):
        rc = main(["table5", "--json", "--no-cache", "--jobs", "2"])
        assert rc == 1  # the crashing point is a real failure
        out, err = capsys.readouterr()
        reports = json.loads(out)  # stdout must stay valid JSON
        assert [r["exp_id"] for r in reports] == ["table5"]
        assert reports[0]["rows"], "sibling results were lost to the crash"
        assert all("V100" in r["label"] for r in reports[0]["rows"])
        assert reports[0]["execution"]["crashes"] >= 1
        assert reports[0]["execution"]["failed"] == 1
        assert "crash" in err

    def test_crash_alongside_healthy_experiment(self, crashing_table5, capsys):
        rc = main(
            ["table5", "table4", "--json", "--no-cache", "--jobs", "2"]
        )
        assert rc == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["exp_id"] for r in reports] == ["table5", "table4"]
        assert reports[1]["rows"]

    def test_recovered_crash_exits_zero(self, tmp_path, monkeypatch, capsys):
        # The worker dies only on the first attempt; with retries the
        # sweep must finish cleanly and surface the recovery counters.
        from repro.experiments import faults

        plan = faults.FaultPlan((
            faults.FaultRule(kind="kill", match="table5", scenario="P100",
                             attempts=1),
        ))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        rc = main([
            "table5", "--json", "--jobs", "2", "--retries", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        out, err = capsys.readouterr()
        assert rc == 0
        reports = json.loads(out)
        stats = reports[0]["execution"]
        assert stats["failed"] == 0
        assert stats["crashes"] >= 1
        assert stats["attempts"] > stats["points"]
        assert "recovered" in err


class TestExecutionCounters:
    def test_clean_run_counters(self, capsys):
        assert main(["table4", "--json", "--no-cache"]) == 0
        reports = json.loads(capsys.readouterr().out)
        stats = reports[0]["execution"]
        assert stats["points"] == 2
        assert stats["attempts"] == 2
        assert stats["retries"] == 0
        assert stats["crashes"] == 0
        assert stats["timeouts"] == 0
        assert stats["failed"] == 0

    def test_flaky_point_retry_counters(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import faults

        plan = faults.FaultPlan((
            faults.FaultRule(kind="flaky", match="table4", scenario="V100",
                             attempts=2),
        ))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        rc = main([
            "table4", "--json", "--retries", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        stats = reports[0]["execution"]
        assert stats["retries"] == 2  # the twice-flaky point took 3 attempts
        assert stats["failed"] == 0


class TestResume:
    def _journal(self, cache):
        from repro.experiments.journal import default_journal_path

        return default_journal_path(cache)

    def test_resume_reexecutes_only_unfinished_points(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import faults

        cache = tmp_path / "cache"
        calls = tmp_path / "calls"
        calls.mkdir()
        orig = EXPERIMENTS["table5"].driver

        def counting(scenario):
            label = "-".join(scenario.gpus)
            n = len(list(calls.glob(f"{label}*")))
            (calls / f"{label}.{n}").touch()
            return orig(scenario)

        _patch_driver(monkeypatch, "table5", counting)

        # Sweep 1: the P100 point fails deterministically -> exit 1 with a
        # journal recording one finish and one failure.
        plan = faults.FaultPlan((
            faults.FaultRule(kind="error", match="table5", scenario="P100",
                             attempts=99),
        ))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        assert main(["table5", "--json", "--cache-dir", str(cache)]) == 1
        capsys.readouterr()
        assert len(list(calls.glob("V100*"))) == 1

        # Resume without the fault: only the failed point runs a driver;
        # the finished point is served from the cache.
        monkeypatch.delenv(faults.ENV_VAR)
        rc = main(["--resume", str(self._journal(cache)), "--json",
                   "--cache-dir", str(cache)])
        out, err = capsys.readouterr()
        assert rc == 0
        assert len(list(calls.glob("V100*"))) == 1  # not re-executed
        assert len(list(calls.glob("P100*"))) >= 1  # re-executed
        reports = json.loads(out)
        assert reports[0]["execution"]["cached"] == 1
        assert reports[0]["execution"]["failed"] == 0
        assert len(reports[0]["scenario"]["points"]) == 2  # full merged report
        assert "resuming sweep" in err

    def test_completed_journal_resumes_to_full_cache_hits(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        assert main(["table4", "--json", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        rc = main(["--resume", str(self._journal(cache)), "--json",
                   "--cache-dir", str(cache)])
        out, _ = capsys.readouterr()
        assert rc == 0
        stats = json.loads(out)[0]["execution"]
        assert stats["cached"] == stats["points"] == 2

    def test_resume_rejects_point_selection_args(self, tmp_path, capsys):
        rc = main(["table4", "--resume", str(tmp_path / "j.jsonl")])
        assert rc == 2
        assert "from the journal" in capsys.readouterr().err

    def test_resume_rejects_no_cache(self, tmp_path, capsys):
        rc = main(["--resume", str(tmp_path / "j.jsonl"), "--no-cache"])
        assert rc == 2
        assert "needs the result cache" in capsys.readouterr().err

    def test_resume_missing_journal_is_usage_error(self, tmp_path, capsys):
        rc = main(["--resume", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "cannot resume" in capsys.readouterr().err


class TestSupervisionUsage:
    def test_negative_retries_rejected(self, capsys):
        assert main(["table4", "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err

    def test_nonpositive_timeout_rejected(self, capsys):
        assert main(["table4", "--timeout", "0"]) == 2
        assert "--timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf", "1e10"])
    def test_unwaitable_timeout_rejected(self, timeout, capsys):
        # NaN never expires and anything past threading.TIMEOUT_MAX
        # overflows the pool's wait(): both are usage errors naming the
        # bound, not a sweep that polls forever or a traceback.
        assert main(["table4", "--timeout", timeout, "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "--timeout" in err and f"{threading.TIMEOUT_MAX:g}" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, jobs, capsys):
        assert main(["table4", "--jobs", jobs, "--no-cache"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestScenarioUsage:
    @pytest.mark.parametrize(
        "exp_id, override",
        [
            ("table4", "gpus=V100,V100"),
            ("table4", "gpus=V100,v100"),
            ("fig8", "gpu_counts=2,2"),
        ],
    )
    def test_repeated_entries_rejected(self, exp_id, override, capsys):
        assert main([exp_id, "--no-cache", "--scenario", override]) == 2
        err = capsys.readouterr().err
        assert "bad --scenario override" in err and "repeat" in err

    def test_non_finite_strategy_knob_fails_the_point(self, capsys):
        argv = [
            "sync_methods", "--no-cache",
            "--scenario", "sync_strategy=atomic", "--scenario", "extra.poll_ns=nan",
        ]
        assert main(argv) == 1
        assert "poll_ns=nan for MultiGridGroup must be finite" in capsys.readouterr().err

    def test_negative_divergence_arms_fails_the_point(self, capsys):
        # The divergence driver builds ``Diverge(arms=...)`` from the
        # scenario; a negative count fails the point at construction.
        assert main(["divergence", "--scenario", "extra.arms=-1", "--no-cache"]) == 1
        assert "Diverge arms must be non-negative" in capsys.readouterr().err


class TestBackendUsage:
    """The backend knob takes ``engine`` or ``auto``; any other name is a
    usage error however it arrives, and the message lists both."""

    def test_analytic_backend_rejected(self, capsys):
        assert main(["table4", "--backend", "analytic", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend: analytic" in err
        assert "available: engine, auto" in err

    def test_analytic_scenario_override_rejected(self, capsys):
        argv = ["table4", "--no-cache", "--scenario", "backend=analytic"]
        assert main(argv) == 2
        assert "available: engine, auto" in capsys.readouterr().err

    def test_resume_of_journal_naming_analytic_rejected(self, tmp_path, capsys):
        from repro.experiments.journal import default_journal_path

        cache = tmp_path / "cache"
        assert main(["table4", "--backend", "auto", "--cache-dir", str(cache)]) == 0
        journal = default_journal_path(cache)
        text = journal.read_text()
        assert '"backend": "auto"' in text
        journal.write_text(text.replace('"backend": "auto"', '"backend": "analytic"'))
        capsys.readouterr()
        assert main(["--resume", str(journal), "--cache-dir", str(cache)]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "available: engine, auto" in err


class TestExperimentIdUsage:
    def test_repeated_id_rejected(self, capsys):
        # Running table4 twice would duplicate its work and its report.
        assert main(["table4", "table4", "--no-cache"]) == 2
        assert "repeated experiment id(s): table4" in capsys.readouterr().err

    def test_every_repeated_id_named_once(self, capsys):
        assert main(["table4", "table1", "table4", "table1", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "repeated experiment id(s): table4, table1" in err
