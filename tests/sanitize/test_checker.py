"""Tests for the dynamic checker rules and SanitizerSession."""

import json

import pytest

from repro.sanitize import (
    SANITIZE_MODES,
    SanitizerSession,
    check_deadlock,
    check_sync,
    render_findings,
    run_checks,
)
from repro.sanitize import events as ev
from repro.sim.arch import V100
from repro.sim.engine import DeadlockError
from repro.sync.groups import GridGroup, WarpGroup


@pytest.fixture(autouse=True)
def _no_leaked_monitor():
    yield
    ev.uninstall()


def _partial_grid_findings(mode="synccheck"):
    with SanitizerSession(mode) as sess:
        group = GridGroup(V100, blocks_per_sm=1, threads_per_block=64, sm_count=4)
        with pytest.raises(DeadlockError):
            group.simulate(participating_blocks=2)
    return sess


class TestDivergence:
    def test_names_members_round_scope(self):
        sess = _partial_grid_findings()
        div = [f for f in sess.findings() if f.rule == "SYNC-DIVERGENCE"]
        assert len(div) == 1
        details = div[0].details
        assert details["missing"] == [2, 3]
        assert details["arrived"] == [0, 1]
        assert details["round"] == 0
        assert "GridGroup" in details["scope"]

    def test_quiet_on_full_participation(self):
        with SanitizerSession("synccheck") as sess:
            group = GridGroup(V100, 1, 64, sm_count=4)
            group.simulate()
        assert sess.findings() == []

    def test_only_first_divergent_round_reported(self):
        # Round 1 never gathers arrivals at all (everyone is stuck in
        # round 0), so exactly one divergence is reported, not a cascade.
        sess = _partial_grid_findings()
        assert sum(f.rule == "SYNC-DIVERGENCE" for f in sess.findings()) == 1


class TestDeadlockBlame:
    def test_blame_names_release_signal_and_missing(self):
        sess = _partial_grid_findings()
        blame = [f for f in sess.findings() if f.rule == "DEADLOCK-BLAME"]
        assert len(blame) == 1
        assert "grid-release-0" in blame[0].message
        assert "members [2, 3] never arrived" in blame[0].message
        edges = blame[0].details["waiters"]
        assert len(edges) == 2
        assert all(e["kind"] == "signal" for e in edges)
        assert all(e["round"] == 0 for e in edges)

    def test_check_deadlock_empty_without_quiescence(self):
        mon = ev.SyncMonitor()
        assert check_deadlock(mon) == []


class TestProtocolRules:
    def _run(self, build):
        with SanitizerSession("synccheck") as sess:
            build()
        return [f.rule for f in sess.findings()], sess

    def test_double_arrive(self):
        def build():
            g = WarpGroup(V100, size=2)

            def lane0():
                yield from g.arrive(0, 0)
                yield from g.arrive(0, 0)
                yield from g.wait(0, 0)

            def lane1():
                yield from g.wait(1, 0)

            g.engine.process(lane0(), name="lane0")
            g.engine.process(lane1(), name="lane1")
            g.engine.run()

        rules, _ = self._run(build)
        assert "SYNC-DOUBLE-ARRIVE" in rules
        assert "SYNC-WAIT-BEFORE-ARRIVE" in rules

    def test_round_skew(self):
        def build():
            g = WarpGroup(V100, size=1)

            def lane():
                yield from g.arrive(0, 0)
                yield from g.arrive(0, 1)
                yield from g.wait(0, 0)
                yield from g.wait(0, 1)

            g.engine.process(lane(), name="lane0")
            g.engine.run()

        rules, sess = self._run(build)
        assert "SYNC-ROUND-SKEW" in rules
        skew = next(f for f in sess.findings() if f.rule == "SYNC-ROUND-SKEW")
        assert skew.details["skipped_round"] == 0

    def test_clean_protocol_is_quiet(self):
        def build():
            g = WarpGroup(V100, size=2)

            def lane(i):
                yield from g.sync(i, 0)
                yield from g.sync(i, 1)

            for i in range(2):
                g.engine.process(lane(i), name=f"lane{i}")
            g.engine.run()

        rules, _ = self._run(build)
        assert rules == []

    def test_violations_deduplicated(self):
        mon = ev.SyncMonitor()
        scope = WarpGroup(V100, size=2)
        sid = mon.register_scope(scope)
        for _ in range(3):
            mon.events.append(
                ev.SyncEvent("wait", scope=sid, member=1, round=0)
            )
        findings = check_sync(mon)
        assert sum(f.rule == "SYNC-WAIT-BEFORE-ARRIVE" for f in findings) == 1


class TestSession:
    def test_modes_exposed(self):
        assert SANITIZE_MODES == ("off", "synccheck", "racecheck", "full")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitize mode"):
            SanitizerSession("everything")
        with pytest.raises(ValueError, match="unknown sanitize mode"):
            run_checks(ev.SyncMonitor(), "off")

    def test_off_mode_is_noop(self):
        with SanitizerSession("off") as sess:
            assert ev.MONITOR is None
        assert sess.findings() == []
        assert sess.summary() == {"mode": "off", "events": 0, "findings": []}

    def test_synccheck_skips_memory_capture(self):
        assert SanitizerSession("synccheck").monitor.capture_memory is False
        assert SanitizerSession("racecheck").monitor.capture_memory is True
        assert SanitizerSession("full").monitor.capture_memory is True

    def test_nesting_restores_previous_monitor(self):
        with SanitizerSession("synccheck") as outer:
            with SanitizerSession("racecheck") as inner:
                assert ev.MONITOR is inner.monitor
            assert ev.MONITOR is outer.monitor
        assert ev.MONITOR is None

    def test_package_exports_no_stale_monitor(self):
        # The package used to re-export MONITOR by value: None forever,
        # whatever a session installed.
        import repro.sanitize

        assert "MONITOR" not in repro.sanitize.__all__
        with SanitizerSession("full") as sess:
            assert ev.current_monitor() is ev.MONITOR is sess.monitor
            with pytest.raises(AttributeError):
                repro.sanitize.MONITOR

    def test_monitor_uninstalled_on_exception(self):
        with pytest.raises(RuntimeError):
            with SanitizerSession("full"):
                raise RuntimeError("boom")
        assert ev.MONITOR is None

    def test_summary_is_json_able(self):
        sess = _partial_grid_findings("full")
        payload = sess.summary()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["mode"] == "full"
        assert back["events"] > 0
        rules = [f["rule"] for f in back["findings"]]
        assert "SYNC-DIVERGENCE" in rules
        for f in back["findings"]:
            assert f["anchor"].startswith("docs/sanitize.md#")

    def test_racecheck_mode_skips_sync_rules(self):
        sess = _partial_grid_findings("racecheck")
        rules = [f.rule for f in sess.findings()]
        assert "SYNC-DIVERGENCE" not in rules
        assert "DEADLOCK-BLAME" in rules  # deadlock blame runs in every mode

    def test_truncation_warning(self):
        with SanitizerSession("synccheck", max_events=5) as sess:
            group = GridGroup(V100, 1, 64, sm_count=4)
            group.simulate()
        warn = [f for f in sess.findings() if f.rule == "SANITIZE-TRUNCATED"]
        assert len(warn) == 1
        assert warn[0].severity == "warning"

    def test_render_findings_lines(self):
        sess = _partial_grid_findings()
        lines = render_findings(sess.findings())
        assert any(line.startswith("[SYNC-DIVERGENCE] error:") for line in lines)
        assert all("docs/sanitize.md" in line for line in lines)
