"""Integration of the sanitizer with Scenario / CLI / reports / runner."""

import warnings

import pytest

from repro.experiments.base import ExperimentReport, merge_reports
from repro.experiments.cli import main as cli_main
from repro.experiments.service.workers import _run_driver
from repro.experiments.scenario import Scenario
from repro.reduction.warp import _run_latency_cycles, warp_reduce_latency_cycles
from repro.sanitize import SanitizerSession
from repro.sanitize import events as ev
from repro.sim.arch import V100
from repro.sim.backends import reset_fallback_warnings
from repro.sim.engine import BlockedWaiter, DeadlockError, Engine, Timeout
from repro.sim.sm import simulate_warp_sync_throughput
from repro.sync.groups import GridGroup


@pytest.fixture(autouse=True)
def _no_leaked_monitor():
    yield
    ev.uninstall()


class TestScenarioField:
    def test_default_is_none(self):
        assert Scenario().sanitize is None

    def test_off_normalizes_to_none(self):
        assert Scenario(sanitize="off").sanitize is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitize mode"):
            Scenario(sanitize="everything")

    def test_off_hashes_like_default(self):
        # "off" must not perturb the content hash: cached unsanitized
        # artifacts stay valid when --sanitize off is passed explicitly.
        assert Scenario(sanitize="off").content_hash == Scenario().content_hash
        assert "sanitize" not in Scenario(sanitize="off").to_dict()

    def test_active_mode_changes_hash_and_round_trips(self):
        s = Scenario(sanitize="full")
        assert s.content_hash != Scenario().content_hash
        assert s.to_dict()["sanitize"] == "full"
        assert Scenario.from_dict(s.to_dict()).sanitize == "full"
        assert "sanitize=full" in s.describe()

    def test_override_string_path(self):
        from repro.experiments.scenario import apply_overrides

        s = apply_overrides(Scenario(), ["sanitize=racecheck"])
        assert s.sanitize == "racecheck"


class TestCliValidation:
    def test_unknown_sanitize_mode_exits_2(self, capsys):
        assert cli_main(["--sanitize", "bogus"]) == 2
        assert "unknown sanitize mode" in capsys.readouterr().err

    def test_resume_rejects_sanitize(self, tmp_path, capsys):
        journal = tmp_path / "sweep.journal"
        journal.write_text("")
        rc = cli_main(["--resume", str(journal), "--sanitize", "full"])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err


class TestReportPayload:
    def _report(self, sanitizer=None):
        rep = ExperimentReport(exp_id="x", title="X")
        rep.add("row", paper=1.0, measured=1.0, unit="ns")
        rep.sanitizer = sanitizer
        return rep

    def test_omitted_when_unset(self):
        assert "sanitizer" not in self._report().to_dict()

    def test_round_trip_and_render(self):
        payload = {
            "mode": "full",
            "events": 12,
            "findings": [
                {
                    "rule": "SYNC-DIVERGENCE",
                    "severity": "error",
                    "message": "members [2, 3] never arrived",
                    "anchor": "docs/sanitize.md#sync-divergence",
                }
            ],
        }
        rep = self._report(payload)
        back = ExperimentReport.from_dict(rep.to_dict())
        assert back.sanitizer == payload
        text = back.render()
        assert "sanitizer[full]: 1 finding(s), 12 events" in text
        assert "SYNC-DIVERGENCE" in text

    def test_merge_combines_payloads(self):
        a = self._report({"mode": "full", "events": 3, "findings": []})
        b = self._report(
            {"mode": "full", "events": 4, "findings": [{"rule": "R"}]}
        )
        merged = merge_reports("x", "X", [a, b])
        assert merged.sanitizer["mode"] == "full"
        assert merged.sanitizer["events"] == 7
        assert len(merged.sanitizer["findings"]) == 1

    def test_merge_ignores_unsanitized(self):
        merged = merge_reports("x", "X", [self._report(), self._report()])
        assert merged.sanitizer is None


class _Spec:
    """Minimal stand-in for an ExperimentSpec (only .driver is used)."""

    def __init__(self, driver):
        self.driver = driver


class TestRunDriver:
    def test_unsanitized_passthrough(self):
        def driver(scenario):
            assert ev.MONITOR is None
            return ExperimentReport(exp_id="x", title="X")

        rep = _run_driver(_Spec(driver), Scenario())
        assert rep.sanitizer is None

    def test_sanitized_attaches_summary(self):
        def driver(scenario):
            assert ev.MONITOR is not None
            GridGroup(V100, 1, 64, sm_count=2).simulate()
            return ExperimentReport(exp_id="x", title="X")

        rep = _run_driver(_Spec(driver), Scenario(sanitize="full"))
        assert rep.sanitizer["mode"] == "full"
        assert rep.sanitizer["events"] > 0
        assert rep.sanitizer["findings"] == []

    def test_deadlock_message_carries_findings(self):
        def driver(scenario):
            group = GridGroup(V100, 1, 64, sm_count=4)
            group.simulate(participating_blocks=2)

        with pytest.raises(DeadlockError) as excinfo:
            _run_driver(_Spec(driver), Scenario(sanitize="synccheck"))
        msg = str(excinfo.value)
        assert "sanitizer findings:" in msg
        assert "SYNC-DIVERGENCE" in msg
        assert "DEADLOCK-BLAME" in msg
        assert ev.MONITOR is None  # session unwound despite the raise


class TestStructuredDeadlock:
    def test_waiters_populated_without_sanitizer(self):
        # The structured blame rides on DeadlockError even with the
        # sanitizer off — the engine-level half of the bug fix.
        group = GridGroup(V100, 1, 64, sm_count=4)
        with pytest.raises(DeadlockError) as excinfo:
            group.simulate(participating_blocks=2)
        waiters = excinfo.value.waiters
        assert waiters and all(isinstance(w, BlockedWaiter) for w in waiters)
        kinds = {w.wait_kind for w in waiters}
        assert kinds == {"signal"}
        assert any(w.target_name.startswith("grid-release") for w in waiters)
        # Sorted, and each record renders to a human-readable line.
        assert [w.process for w in waiters] == sorted(w.process for w in waiters)
        assert "blocked on signal" in waiters[0].describe()

    def test_monitor_records_the_engine_waiters(self):
        # One function describes what a blocked process waits on: the
        # monitor keeps the records the engine raises.
        with SanitizerSession("synccheck") as session:
            group = GridGroup(V100, 1, 64, sm_count=4)
            with pytest.raises(DeadlockError) as excinfo:
                group.simulate(participating_blocks=2)
        assert session.monitor.deadlocks == [excinfo.value.waiters]

    def test_message_unchanged_by_waiters(self):
        # Byte-compat: the structured records must not alter the message
        # the pinned pitfall experiments assert on.
        plain = DeadlockError(["a", "b"])
        rich = DeadlockError(
            ["a", "b"], waiters=[BlockedWaiter("a", "signal", "s", None)]
        )
        assert str(plain) == str(rich)


class TestEventStream:
    def test_finishing_processes_record_no_signal(self):
        # Only fired Signals are signal events; a process that returns
        # fires none.
        eng = Engine()

        def proc():
            yield Timeout(1.0)

        with SanitizerSession("full") as session:
            for i in range(3):
                eng.process(proc(), name=f"p{i}")
            eng.run()
        assert eng.event_count == 6
        assert session.monitor.events_of("signal") == []


class TestShortcutsStepAside:
    """Memos and the analytic backend must not hide simulation from an
    installed monitor.

    Otherwise a sanitized report's event counts would depend on what ran
    earlier in the same process (and, under --jobs, on which worker).
    The saturated-pipe folds hide nothing: their event path records no
    event, so they keep running under a monitor.
    """

    def test_saturated_pipe_fold_bypassed(self, monkeypatch):
        # The workload saturates the pipe, so the fold runs without an
        # engine, with or without a monitor installed.
        from repro.sim import sm

        calls = {"fold": 0, "event_path": 0}
        fold, run_events = sm._fold, sm._run_warp_sync

        def counting_fold(*args):
            calls["fold"] += 1
            return fold(*args)

        def counting_run(*args):
            calls["event_path"] += 1
            return run_events(*args)

        monkeypatch.setattr(sm, "_fold", counting_fold)
        monkeypatch.setattr(sm, "_run_warp_sync", counting_run)

        def run():
            return simulate_warp_sync_throughput(
                V100, "tile", 32, n_warps=64, repeats=64
            )

        folded = run()
        with SanitizerSession("full") as session:
            sanitized = run()
        assert calls == {"fold": 2, "event_path": 0}
        assert sanitized == folded
        assert session.monitor.events == []

    def test_warp_latency_memo_bypassed(self):
        def events(latency):
            with SanitizerSession("full") as session:
                latency(V100, "tile_shuffle")
            return len(session.monitor.events)

        warp_reduce_latency_cycles(V100, "tile_shuffle")  # primes the memo
        # The memoized entry point records what running the warp records.
        unmemoized = _run_latency_cycles.__wrapped__
        assert events(warp_reduce_latency_cycles) == events(unmemoized) == 5

    @pytest.mark.parametrize("backend", [None, "auto", "analytic"])
    def test_analytic_backend_bypassed(self, backend):
        def events(backend):
            with SanitizerSession("full") as session:
                GridGroup(
                    V100, blocks_per_sm=2, threads_per_block=256, backend=backend
                ).simulate(n_syncs=4)
            return len(session.monitor.events)

        reset_fallback_warnings()
        if backend == "analytic":
            with pytest.warns(RuntimeWarning, match="sanitizer monitor"):
                recorded = events(backend)
        else:  # the default and auto fall back silently
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                recorded = events(backend)
        # The closed forms fire only the round hooks; the engine records
        # every arrival, wait and release.
        assert recorded == events("engine") == 1933
