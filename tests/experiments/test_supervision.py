"""Supervised-execution tests: crash isolation, timeout, retry, claims.

Every failure is injected deterministically through
:mod:`repro.experiments.faults`; nothing here depends on races or luck.
Plans travel in ``$REPRO_FAULT_PLAN``, which pool workers inherit under
both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

import pytest

from repro.experiments import faults
from repro.experiments.cli import main
from repro.experiments.faults import FaultRule
from repro.experiments.journal import SweepJournal, load_journal
from repro.experiments.scenario import Scenario
from repro.experiments.service import NO_RETRY, RetryPolicy, SweepService, execute_point
from repro.experiments.service import cache as service_cache
from repro.experiments.service.queue import (
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
    KIND_TRANSIENT,
)
from repro.experiments.service.scheduler import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    BACKOFF_JITTER,
)

V100 = Scenario(gpus=("V100",))
P100 = Scenario(gpus=("P100",))

FAST = RetryPolicy(max_attempts=3)


@pytest.fixture(autouse=True)
def clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


class TestRetryPolicy:
    def test_default_retries_transient_kinds_only(self):
        policy = RetryPolicy()
        for kind in (KIND_CRASH, KIND_TIMEOUT, KIND_TRANSIENT):
            assert policy.should_retry(kind, 1)
        assert not policy.should_retry(KIND_ERROR, 1)

    def test_should_retry_respects_max_attempts(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(KIND_CRASH, 1)
        assert not policy.should_retry(KIND_CRASH, 2)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy()
        for attempt in (1, 2, 3):
            step = BACKOFF_BASE_S * 2 ** (attempt - 1)
            assert step <= policy.backoff(attempt) < step * (1 + BACKOFF_JITTER)
        capped = policy.backoff(10)  # 0.05 * 2**9 = 25.6 s uncapped
        assert BACKOFF_CAP_S <= capped < BACKOFF_CAP_S * (1 + BACKOFF_JITTER)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy()
        a = policy.backoff(1, key="table4/abc")
        b = policy.backoff(1, key="table4/abc")
        other = policy.backoff(1, key="fig8/def")
        assert a == b  # reproducible run to run
        assert BACKOFF_BASE_S <= a < BACKOFF_BASE_S * (1 + BACKOFF_JITTER)
        assert a != other  # decorrelated across points

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1


class TestCrashIsolation:
    def test_worker_kill_does_not_lose_siblings(self, inject_faults, cache_dir):
        # One point's worker dies on its first attempt; every point of the
        # sweep must still complete, and the casualty's counters must show
        # the crash.
        inject_faults(FaultRule(kind="kill", match="table4", scenario="P100", attempts=1))
        results = SweepService(
            jobs=2, cache_dir=cache_dir, retry=FAST,
        ).run([("table4", V100), ("table4", P100), ("table1", V100)])
        assert all(r.ok for r in results)
        assert sum(r.crashes for r in results) >= 1
        crashed = [r for r in results if r.crashes]
        assert all(r.attempts > 1 for r in crashed)

    def test_queued_casualties_are_never_charged(self, inject_faults, cache_dir):
        # Up to four points are in flight on two workers, so the kill also
        # fails points still waiting in the call queue.  They re-run alone
        # as suspects; only the culprit is charged, once.
        inject_faults(FaultRule(kind="kill", match="table4", scenario="P100", attempts=1))
        points = [
            ("table4", V100), ("table4", P100), ("table1", V100), ("table2", V100),
            ("table2", P100), ("table5", V100), ("table5", P100),
        ]
        results = SweepService(jobs=2, cache_dir=cache_dir, retry=FAST).run(points)
        assert [(r.exp_id, r.scenario) for r in results] == points
        assert all(r.ok for r in results)
        culprit = results.pop(1)
        assert (culprit.attempts, culprit.crashes) == (2, 1)
        assert all((r.attempts, r.crashes) == (1, 0) for r in results)

    def test_unrecoverable_crash_fails_with_kind_crash(self, inject_faults, cache_dir):
        # The worker dies on *every* attempt: the point fails with kind
        # "crash" after exhausting the policy, and healthy siblings from
        # other experiments still land.
        inject_faults(FaultRule(kind="kill", match="table4", attempts=99))
        results = SweepService(
            jobs=2, cache_dir=cache_dir,
            retry=RetryPolicy(max_attempts=2),
        ).run([("table1", V100), ("table4", V100)])
        by_id = {r.exp_id: r for r in results}
        assert by_id["table1"].ok
        # Suspect isolation: the innocent sibling is never charged a
        # crash attempt just because it shared the pool with the culprit.
        assert by_id["table1"].crashes == 0
        dead = by_id["table4"]
        assert not dead.ok
        assert dead.error_kind == KIND_CRASH
        assert dead.attempts == 2 and dead.crashes == 2

    def test_serial_jobs1_survives_kill_fault(self, inject_faults, cache_dir):
        # In-process execution downgrades the kill to a transient raise
        # (the process must survive) and the retry makes the point pass.
        inject_faults(FaultRule(kind="kill", match="table4", attempts=1))
        results = SweepService(
            jobs=1, cache_dir=cache_dir, retry=FAST,
        ).run([("table4", V100)])
        assert results[0].ok and results[0].attempts == 2


class TestFlakyRetry:
    def test_twice_flaky_point_completes_on_third_attempt(self, inject_faults, cache_dir):
        inject_faults(FaultRule(kind="flaky", match="table4", attempts=2))
        results = SweepService(
            jobs=1, cache_dir=cache_dir, retry=FAST,
        ).run([("table4", V100)])
        assert results[0].ok
        assert results[0].attempts == 3
        assert results[0].retries == 2

    def test_flaky_in_pool_workers(self, inject_faults, cache_dir):
        inject_faults(FaultRule(kind="flaky", match="table4", attempts=1))
        results = SweepService(
            jobs=2, cache_dir=cache_dir, retry=FAST,
        ).run([("table4", V100), ("table4", P100)])
        assert all(r.ok for r in results)
        assert all(r.attempts == 2 for r in results)

    def test_no_retry_surfaces_transient_failure(self, inject_faults, cache_dir):
        inject_faults(FaultRule(kind="flaky", match="table4", attempts=2))
        results = SweepService(
            jobs=1, cache_dir=cache_dir, retry=NO_RETRY,
        ).run([("table4", V100)])
        assert not results[0].ok
        assert results[0].error_kind == KIND_TRANSIENT
        assert results[0].attempts == 1


class TestFailFast:
    def test_deterministic_error_never_retried(self, inject_faults, cache_dir):
        inject_faults(FaultRule(kind="error", match="table4", attempts=99))
        results = SweepService(
            jobs=1, cache_dir=cache_dir, retry=FAST,
        ).run([("table4", V100)])
        assert not results[0].ok
        assert results[0].error_kind == KIND_ERROR
        assert results[0].attempts == 1  # failed fast

    def test_deterministic_error_fails_fast_in_pool(self, inject_faults, cache_dir):
        inject_faults(FaultRule(kind="error", match="table4", attempts=99))
        results = SweepService(
            jobs=2, cache_dir=cache_dir, retry=FAST,
        ).run([("table4", V100), ("table1", V100)])
        by_id = {r.exp_id: r for r in results}
        assert not by_id["table4"].ok and by_id["table4"].attempts == 1
        assert by_id["table1"].ok


class TestTimeout:
    def test_stuck_point_times_out_and_retries(self, inject_faults, cache_dir):
        # Attempt 1 sleeps far past the deadline; the supervisor kills the
        # pool, records a timeout, and attempt 2 (no delay rule) passes.
        inject_faults(FaultRule(kind="delay", match="table4", delay=30.0, attempts=1))
        t0 = time.monotonic()
        results = SweepService(
            jobs=2, cache_dir=cache_dir, timeout=0.8,
            retry=RetryPolicy(max_attempts=2),
        ).run([("table4", V100)])
        elapsed = time.monotonic() - t0
        assert results[0].ok
        assert results[0].timeouts == 1
        assert results[0].attempts == 2
        assert elapsed < 10  # the 30s sleep was killed, not awaited

    def test_timeout_exhaustion_fails_with_kind_timeout(self, inject_faults, cache_dir):
        inject_faults(FaultRule(kind="delay", match="table4", delay=30.0, attempts=99))
        results = SweepService(
            jobs=1, cache_dir=cache_dir, timeout=0.5, retry=NO_RETRY,
        ).run([("table4", V100)])
        assert not results[0].ok
        assert results[0].error_kind == KIND_TIMEOUT
        assert "wall-clock timeout" in results[0].error

    def test_timeout_forces_pool_even_for_jobs1(self, inject_faults, cache_dir):
        # jobs=1 + timeout must still enforce the deadline (via a
        # single-worker pool) instead of silently ignoring it.
        inject_faults(FaultRule(kind="delay", match="table4", delay=30.0, attempts=1))
        results = SweepService(
            jobs=1, cache_dir=cache_dir, timeout=0.8,
            retry=RetryPolicy(max_attempts=2),
        ).run([("table4", V100)])
        assert results[0].ok and results[0].timeouts == 1

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            SweepService(timeout=0.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 1e10])
    def test_unwaitable_timeout_rejected(self, timeout):
        # NaN never expires; past threading.TIMEOUT_MAX the pool's wait()
        # overflows.  Both messages name the bound.
        bound = re.escape(f"{threading.TIMEOUT_MAX:g}")
        with pytest.raises(ValueError, match=bound):
            SweepService(timeout=timeout)


class TestQuarantine:
    def test_corrupt_entry_quarantined_and_warned_once(self, cache_dir, capsys):
        first = execute_point("table4", V100, cache_dir=cache_dir)
        [path] = list(cache_dir.glob("table4-*.json"))
        path.write_text("{definitely not json")
        res = execute_point("table4", V100, cache_dir=cache_dir)
        assert res.ok and not res.cached
        assert res.report == first.report
        # The bad bytes moved aside (recomputed once, not re-parsed forever)
        # and a fresh entry took the key back.
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.exists()
        err = capsys.readouterr().err
        assert err.count("corrupt result cache entry") == 1

    def test_quarantined_entry_not_reparsed(self, cache_dir, capsys, monkeypatch):
        monkeypatch.setattr(service_cache, "_QUARANTINE_WARNED", set())
        execute_point("table4", V100, cache_dir=cache_dir)
        [path] = list(cache_dir.glob("table4-*.json"))
        path.write_text("{broken")
        execute_point("table4", V100, cache_dir=cache_dir)
        capsys.readouterr()
        res = execute_point("table4", V100, cache_dir=cache_dir)
        assert res.cached  # healthy entry back in place
        assert "corrupt" not in capsys.readouterr().err


class TestCacheClaims:
    def test_claim_excludes_second_acquirer(self, tmp_path):
        path = tmp_path / "entry.json"
        a = service_cache.CacheClaim(path)
        b = service_cache.CacheClaim(path)
        assert a.acquire()
        assert not b.acquire()
        a.release()
        assert b.acquire()
        b.release()

    def test_dead_owner_claim_is_stale_and_taken_over(self, tmp_path):
        scen = V100
        path = service_cache.cache_path(tmp_path, "table4", scen)
        tmp_path.mkdir(exist_ok=True)
        claim_file = path.with_name(path.name + ".claim")
        # Pid far above pid_max: provably not a live process.
        claim_file.write_text(json.dumps({"pid": 2**22 + 12345, "time": time.time()}))
        t0 = time.monotonic()
        res = execute_point("table4", scen, cache_dir=tmp_path)
        assert res.ok and not res.cached
        assert time.monotonic() - t0 < 5.0  # takeover, not a TTL wait
        assert not claim_file.exists()

    def test_torn_claim_file_is_stale(self, tmp_path):
        path = tmp_path / "entry.json"
        claim = service_cache.CacheClaim(path)
        claim.path.write_text("{torn")
        assert claim.is_stale()

    def test_live_claim_waits_for_published_result(self, tmp_path, cache_dir):
        # A rival (simulated by this very process: live pid) holds the
        # claim; a second writer must wait and then consume the published
        # report instead of recomputing.
        fresh = execute_point("table4", V100, cache_dir=cache_dir)
        path = service_cache.cache_path(tmp_path, "table4", V100)
        tmp_path.mkdir(exist_ok=True)
        claim_file = path.with_name(path.name + ".claim")
        claim_file.write_text(json.dumps({"pid": os.getpid(), "time": time.time()}))

        def publish():
            time.sleep(0.3)
            service_cache.cache_store(path, fresh.report)
            claim_file.unlink()

        thread = threading.Thread(target=publish)
        thread.start()
        t0 = time.monotonic()
        res = execute_point("table4", V100, cache_dir=tmp_path)
        thread.join()
        assert res.ok and res.cached
        assert res.report == fresh.report
        assert time.monotonic() - t0 >= 0.25  # actually waited

    def test_claims_cleaned_up_after_success(self, cache_dir):
        execute_point("table4", V100, cache_dir=cache_dir)
        assert not list(cache_dir.glob("*.claim"))

    def test_failed_point_releases_claim(self, inject_faults, cache_dir):
        inject_faults(FaultRule(kind="error", match="table4"))
        execute_point("table4", V100, cache_dir=cache_dir)
        assert not list(cache_dir.glob("*.claim"))


class TestJournalIntegration:
    def test_run_points_journals_progress(self, cache_dir, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        points = [("table4", V100), ("table4", P100)]
        SweepService(jobs=1, cache_dir=cache_dir, journal=journal).run(points)
        journal.close()
        state = load_journal(tmp_path / "sweep.jsonl")
        assert state.points == points
        assert state.finished == {0, 1}
        assert state.unfinished == []
        assert state.code_version == service_cache.code_version()

    def test_failures_and_retries_are_journaled(self, inject_faults, cache_dir, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        inject_faults(FaultRule(kind="flaky", match="table4", attempts=1))
        SweepService(
            jobs=1, cache_dir=cache_dir, retry=FAST, journal=journal,
        ).run([("table4", V100)])
        journal.close()
        records = [
            json.loads(line)
            for line in (tmp_path / "sweep.jsonl").read_text().splitlines()
        ]
        events = [r["event"] for r in records]
        assert events == ["sweep", "start", "fail", "start", "finish"]
        assert records[2]["kind"] == "transient"

    def test_healthy_point_runs_during_backoff_in_process(
        self, inject_faults, tmp_path, capsys
    ):
        # --jobs 1 shares the pool's attempt path: while the flaky V100
        # point backs off, the healthy P100 point runs, and the merged
        # output is what the pool path prints for the same sweep.
        inject_faults(FaultRule(kind="flaky", match="table4", scenario="V100",
                                attempts=1))
        outputs = {}
        for jobs in ("1", "2"):
            journal = tmp_path / f"sweep-{jobs}.jsonl"
            rc = main(["table4", "--json", "--jobs", jobs, "--retries", "1",
                       "--cache-dir", str(tmp_path / f"cache-{jobs}"),
                       "--journal", str(journal)])
            outputs[jobs] = capsys.readouterr().out
            assert rc == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "sweep-1.jsonl").read_text().splitlines()
        ]
        assert [(r["event"], r.get("index")) for r in records] == [
            ("sweep", None), ("start", 0), ("fail", 0), ("start", 1),
            ("finish", 1), ("start", 0), ("finish", 0),
        ]
        assert outputs["1"] == outputs["2"]
        [report] = json.loads(outputs["1"])
        assert report["execution"]["retries"] == 1

    def test_pool_path_journals_too(self, cache_dir, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        points = [("table4", V100), ("table4", P100), ("table1", V100)]
        SweepService(jobs=2, cache_dir=cache_dir, journal=journal).run(points)
        journal.close()
        state = load_journal(tmp_path / "sweep.jsonl")
        assert state.finished == {0, 1, 2}


class TestSupervisedEquivalence:
    def test_supervised_results_match_serial(self, cache_dir):
        points = [("table4", V100), ("table4", P100), ("table1", V100)]
        serial = SweepService(jobs=1, use_cache=False).run(points)
        supervised = SweepService(jobs=2, use_cache=False, timeout=120.0).run(points)
        for a, b in zip(serial, supervised):
            assert a.report == b.report
            assert a.report.render() == b.report.render()
