"""Tests for the layered sweep service: job list, pool, aggregator, journal.

The service decomposes sweep execution into three layers
(``scheduler -> workers -> aggregate``); these tests pin each layer's
contract in isolation plus the cross-layer invariants: pooled execution
produces byte-identical reports to in-process execution, and the
``status``/``compact`` subcommands read/rewrite the journal faithfully
(including journals written by older versions).
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
from collections import deque
from concurrent.futures import Future

import pytest

from repro.experiments import faults
from repro.experiments.base import ExperimentReport
from repro.experiments.cli import main
from repro.experiments.journal import (
    SweepJournal,
    compact_journal,
    load_journal,
)
from repro.experiments.scenario import Scenario
from repro.experiments.service import (
    Job,
    ReportAggregator,
    SweepService,
    SweepStats,
    cache,
    execute_point,
    scheduler,
)
from repro.experiments.service.queue import (
    DONE,
    KIND_TRANSIENT,
    PointResult,
)
from repro.experiments.service.workers import WorkerReply, WorkItem, worker_main

POINTS = [
    ("table4", Scenario(gpus=("V100",))),
    ("table4", Scenario(gpus=("P100",))),
    ("table5", Scenario(gpus=("V100",))),
    ("table5", Scenario(gpus=("P100",))),
]


def _result(exp_id, scen, ok=True):
    if ok:
        report = ExperimentReport(exp_id, "t", notes=[scen.describe()])
        return PointResult(exp_id, scen, report=report)
    return PointResult(exp_id, scen, error="boom", error_kind="error")


@pytest.fixture
def dispatched(monkeypatch):
    """Stub the in-process driver entry: record each attempt, succeed.

    A point listed in ``flaky`` fails its first attempt transiently.
    """
    calls = []
    flaky = []

    def stub(exp_id, scenario, use_cache=True, cache_dir=None, attempt=1):
        calls.append((exp_id, scenario, attempt))
        if (exp_id, scenario) in flaky and attempt == 1:
            return PointResult(exp_id, scenario, error="flaky",
                               error_kind=KIND_TRANSIENT)
        return _result(exp_id, scenario)

    monkeypatch.setattr(scheduler, "execute_point", stub)
    return calls, flaky


class TestJobQueue:
    """The service's job list: one Job per point, in input order."""

    def test_from_points_keeps_input_order(self, dispatched):
        calls, _ = dispatched
        service = SweepService(use_cache=False)
        service.run(POINTS)
        assert len(service.queue) == 4
        for i, (job, (exp_id, scen)) in enumerate(zip(service.queue, POINTS)):
            assert (job.index, job.exp_id, job.scenario) == (i, exp_id, scen)
            assert job.state == DONE and job.settled
        assert [(e, s) for e, s, _ in calls] == POINTS

    def test_ready_respects_backoff(self):
        service = SweepService()
        service.queue = [Job(i, e, s) for i, (e, s) in enumerate(POINTS)]
        jobs = service.queue
        jobs[0].ready_at = 100.0
        ready = service._ready(now=50.0)
        assert jobs[0] not in ready
        assert jobs[1] in ready
        assert service._ready(now=150.0)[0] is jobs[0]  # input order
        jobs[1].state = DONE
        assert jobs[1] not in service._ready(now=150.0)

    def test_results_in_input_order(self, dispatched, monkeypatch):
        # Point 0 fails its first attempt and settles after its backoff,
        # behind the others; results still come back by input position.
        _, flaky = dispatched
        flaky.append(POINTS[0])
        service = SweepService(use_cache=False)
        settled = []
        monkeypatch.setattr(
            service.aggregator, "add", lambda i, res: settled.append(i)
        )
        results = service.run(POINTS)
        assert settled[0] == 1 and sorted(settled) == [0, 1, 2, 3]
        assert [(r.exp_id, r.scenario) for r in results] == POINTS
        assert [r.attempts for r in results] == [2, 1, 1, 1]

    def test_from_journal_queues_everything_pending(self, tmp_path, dispatched):
        calls, _ = dispatched
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS, "cafecafecafecafe", jobs=2)
        journal.point_start(0, "table4", 1)
        journal.point_finish(0, "table4", 1, cached=False)
        journal.close()
        service = SweepService(use_cache=False)
        service.run(load_journal(path).points)
        # Finished points are queued like any other: resume recovers
        # their reports through the cache, not by trusting the journal.
        assert [(e, s) for e, s, _ in calls] == POINTS
        assert [(j.exp_id, j.scenario) for j in service.queue] == POINTS


class TestAggregator:
    def test_streaming_fold_and_order(self):
        agg = ReportAggregator()
        for i in (3, 0, 2, 1):
            agg.add(i, _result(*POINTS[i]))
        reports = agg.reports(["table5", "table4"])
        assert [r.exp_id for r in reports] == ["table5", "table4"]
        # Each experiment's points merge in input order, whatever order
        # they settled in.
        assert reports[1].notes == [s.describe() for e, s in POINTS[:2]]
        assert reports[0].notes == [s.describe() for e, s in POINTS[2:]]

    def test_partial_report_none_without_ok_results(self):
        agg = ReportAggregator()
        assert agg.reports(["table4"]) == []
        agg.add(0, _result(*POINTS[0], ok=False))
        assert agg.reports(["table4"]) == []

    def test_execution_stats_counts_failures(self):
        agg = ReportAggregator()
        agg.add(0, _result(*POINTS[0]))
        agg.add(1, _result(*POINTS[1], ok=False))
        stats = agg.execution_stats()["table4"]
        assert stats["points"] == 2 and stats["failed"] == 1


class TestPooledSweep:
    """Cross-layer invariant: the pool never changes the answer."""

    def test_pooled_run_matches_serial(self, tmp_path):
        serial = SweepService(cache_dir=tmp_path / "a").run(POINTS)
        pooled = SweepService(jobs=2, cache_dir=tmp_path / "b").run(POINTS)
        assert [r.ok for r in pooled] == [True] * len(POINTS)
        for a, b in zip(serial, pooled):
            assert a.exp_id == b.exp_id
            assert a.report.to_json() == b.report.to_json()

    def test_service_stats_and_streaming_aggregator(self, tmp_path):
        service = SweepService(jobs=2, cache_dir=tmp_path)
        results = service.run(POINTS)
        assert all(r.ok for r in results)
        # Every settled point was handed to the aggregator...
        stats = service.aggregator.execution_stats()
        assert sum(st["points"] for st in stats.values()) == len(POINTS)
        reports = service.aggregator.reports(["table4", "table5"])
        assert [r.exp_id for r in reports] == ["table4", "table5"]
        # ...and the stats a benchmark reads stay at zero.
        assert service.stats == SweepStats()

    def test_workers_clamped_to_point_count(self, tmp_path):
        service = SweepService(jobs=4, cache_dir=tmp_path)
        results = service.run(POINTS[:2])
        assert all(r.ok for r in results)

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepService(jobs=0)
        with pytest.raises(ValueError, match="timeout"):
            SweepService(timeout=0)

    def test_pool_is_joined_when_the_sweep_returns(self, tmp_path):
        # A manager thread still running at interpreter exit can race the
        # exit hook on its wake-up pipe and print an OSError traceback.
        before = set(threading.enumerate())
        SweepService(jobs=2, cache_dir=tmp_path).run(POINTS)
        managers = [
            t for t in threading.enumerate()
            if t not in before and type(t).__module__.startswith("concurrent.futures")
        ]
        assert managers == []

    def test_interrupted_sweep_kills_its_pool(self, monkeypatch, tmp_path):
        # Waiting for a stuck worker would hang Ctrl-C.
        calls = []

        class Pool:
            max_workers = 2

            def __init__(self, max_workers):
                pass

            def submit(self, item):
                raise KeyboardInterrupt

            def kill(self):
                calls.append("kill")

            def shutdown(self):
                calls.append("shutdown")

        monkeypatch.setattr(scheduler, "WorkerPool", Pool)
        with pytest.raises(KeyboardInterrupt):
            SweepService(jobs=2, cache_dir=tmp_path).run(POINTS)
        assert calls == ["kill"]


class NoPool(Exception):
    pass


def _refuse(*args):
    raise NoPool


def _journal_records(path):
    """A journal's records, with the header's ``jobs`` dropped."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0].pop("jobs")
    return records


class TestCacheHitsBeforePool:
    """A sweep that could use a pool serves its cache hits first, here."""

    def test_cached_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        assert all(r.ok for r in SweepService(cache_dir=tmp_path).run(POINTS))
        serial = SweepService(cache_dir=tmp_path, journal=SweepJournal(tmp_path / "1"))
        serial_results = serial.run(POINTS)
        serial.journal.close()

        monkeypatch.setattr(scheduler, "load_drivers", _refuse)
        monkeypatch.setattr(scheduler, "WorkerPool", _refuse)
        parsed = []
        from_json = ExperimentReport.from_json.__func__

        def counted(cls, text):
            parsed.append(text)
            return from_json(cls, text)

        monkeypatch.setattr(ExperimentReport, "from_json", classmethod(counted))
        pooled = SweepService(jobs=2, cache_dir=tmp_path, journal=SweepJournal(tmp_path / "2"))
        results = pooled.run(POINTS)
        pooled.journal.close()
        assert len(parsed) == len(POINTS)  # each entry parsed once
        assert [(r.exp_id, r.cached, r.attempts) for r in results] == [
            (r.exp_id, r.cached, r.attempts) for r in serial_results
        ]
        assert all(r.cached for r in results)
        assert [r.report.to_json() for r in results] == [
            r.report.to_json() for r in serial_results
        ]
        assert _journal_records(tmp_path / "2") == _journal_records(tmp_path / "1")

    def test_one_miss_runs_in_process(self, tmp_path, monkeypatch):
        SweepService(cache_dir=tmp_path).run(POINTS[1:])
        monkeypatch.setattr(scheduler, "load_drivers", _refuse)
        monkeypatch.setattr(scheduler, "WorkerPool", _refuse)
        results = SweepService(jobs=2, cache_dir=tmp_path).run(POINTS)
        assert [(r.ok, r.cached) for r in results] == [(True, False)] + [(True, True)] * 3

    def test_one_miss_under_timeout_runs_on_one_worker(self, tmp_path, monkeypatch):
        SweepService(cache_dir=tmp_path).run(POINTS[1:])
        calls = []
        load, pool = scheduler.load_drivers, scheduler.WorkerPool

        def loaded(ids):
            ids = list(ids)
            calls.append(("load", ids))
            load(ids)

        def sized(workers):
            calls.append(("pool", workers))
            return pool(workers)

        monkeypatch.setattr(scheduler, "load_drivers", loaded)
        monkeypatch.setattr(scheduler, "WorkerPool", sized)
        results = SweepService(jobs=2, cache_dir=tmp_path, timeout=60.0).run(POINTS)
        assert [(r.ok, r.cached) for r in results] == [(True, False)] + [(True, True)] * 3
        assert calls == [("load", ["table4"]), ("pool", 1)]

    def test_pool_loads_only_the_misses_drivers(self, tmp_path, monkeypatch):
        SweepService(cache_dir=tmp_path).run(POINTS[:2])  # table4 is cached
        calls = []

        def pool(workers):
            calls.append(("pool", workers))
            raise NoPool

        monkeypatch.setattr(
            scheduler, "load_drivers", lambda ids: calls.append(("load", list(ids)))
        )
        monkeypatch.setattr(scheduler, "WorkerPool", pool)
        service = SweepService(jobs=4, cache_dir=tmp_path)
        with pytest.raises(NoPool):
            service.run(POINTS)
        assert calls == [("load", ["table5", "table5"]), ("pool", 2)]
        assert [job.state for job in service.queue[:2]] == [DONE, DONE]

    def test_corrupt_entry_under_timeout_is_recomputed_on_the_pool(
        self, tmp_path, monkeypatch, capsys
    ):
        SweepService(cache_dir=tmp_path).run(POINTS[:2])
        entry = cache.cache_path(tmp_path, *POINTS[0])
        entry.write_text("{not json")
        here = []
        run_here, pool = scheduler.execute_point, scheduler.WorkerPool
        sizes = []

        def recorded(exp_id, scenario, **kwargs):
            here.append((exp_id, scenario))
            return run_here(exp_id, scenario, **kwargs)

        def sized(workers):
            sizes.append(workers)
            return pool(workers)

        monkeypatch.setattr(scheduler, "execute_point", recorded)
        monkeypatch.setattr(scheduler, "WorkerPool", sized)
        results = SweepService(jobs=2, cache_dir=tmp_path, timeout=60.0).run(POINTS[:2])
        assert [(r.ok, r.cached) for r in results] == [(True, False), (True, True)]
        assert here == [POINTS[1]] and sizes == [1]
        assert entry.with_name(entry.name + ".corrupt").exists()
        assert "corrupt result cache entry" in capsys.readouterr().err
        assert entry.exists()  # the pool's worker stored the recomputed report


@pytest.fixture
def outstanding(monkeypatch):
    """A pool of fake workers that run nothing until the sweep waits.

    Each wait finishes the oldest submitted point, as the first free
    worker would.  Returns the number of unfinished futures after each
    submit.
    """
    queued = deque()
    counts = []

    class LazyPool:
        def __init__(self, max_workers, initializer=None):
            pass

        def submit(self, fn, item):
            fut = Future()
            queued.append((fut, item))
            counts.append(len(queued))
            return fut

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    real_wait = concurrent.futures.wait

    def wait(fs, timeout=None, return_when=concurrent.futures.ALL_COMPLETED):
        if queued:
            fut, item = queued.popleft()
            report = ExperimentReport(item.exp_id, "t")
            fut.set_result(WorkerReply(item.exp_id, report_json=report.to_json()))
        return real_wait(fs, timeout=timeout, return_when=return_when)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr(concurrent.futures, "wait", wait)
    return counts


class TestDispatchDepth:
    """How many points a pool of two workers holds in flight."""

    def test_one_point_queued_behind_each_running_one(self, outstanding, tmp_path):
        results = SweepService(jobs=2, cache_dir=tmp_path).run(POINTS * 2)
        assert all(r.ok for r in results)
        assert max(outstanding) == 4

    def test_timeout_keeps_every_in_flight_point_running(self, outstanding, tmp_path):
        # A deadline starts at submit, so no point may wait in a queue.
        results = SweepService(jobs=2, cache_dir=tmp_path, timeout=60.0).run(POINTS * 2)
        assert all(r.ok for r in results)
        assert max(outstanding) == 2


class TestWorkerReply:
    def test_computed_point_ships_the_cached_text(self, tmp_path, monkeypatch):
        # The report is serialized once, for the cache; the reply reuses
        # that text.
        monkeypatch.setattr(faults, "IN_WORKER", False)  # worker_main sets it
        serialized = []
        to_json = ExperimentReport.to_json

        def counted(self, indent=None):
            serialized.append(self.exp_id)
            return to_json(self, indent)

        monkeypatch.setattr(ExperimentReport, "to_json", counted)
        reply = worker_main(WorkItem(
            exp_id="table4", scenario=Scenario(gpus=("V100",)).to_dict(),
            cache_dir=str(tmp_path),
        ))
        [path] = tmp_path.glob("table4-*.json")
        assert serialized == ["table4"]
        assert reply.report_json == path.read_text()


class TestLegacyShardedJournal:
    """Journals from the version with hash-sharded pools still work.

    That version wrote ``"shards": S`` into the sweep header and
    ``"shard": s`` into every start record.  Readers ignore both fields,
    and compaction keeps those lines byte for byte.
    """

    def _legacy_journal(self, tmp_path):
        """Point 0 finished (and cached); point 1 started twice, unfinished."""
        cache_dir = tmp_path / "cache"
        points = [(e, s) for e, s in POINTS if e == "table4"]
        assert execute_point("table4", points[0][1], cache_dir=cache_dir).ok
        records = [
            {"event": "sweep", "code_version": cache.code_version(),
             "jobs": 2, "shards": 2,
             "points": [{"exp_id": e, "scenario": s.to_dict()}
                        for e, s in points]},
            {"event": "start", "index": 0, "exp_id": "table4", "attempt": 1,
             "shard": 1},
            {"event": "finish", "index": 0, "exp_id": "table4", "attempts": 1,
             "cached": False},
            {"event": "start", "index": 1, "exp_id": "table4", "attempt": 1,
             "shard": 0},
            {"event": "start", "index": 1, "exp_id": "table4", "attempt": 2,
             "shard": 1},
        ]
        path = cache_dir / "sweep-journal.jsonl"
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        return path, cache_dir, points

    def test_loads_and_reports_status(self, tmp_path, capsys):
        path, cache_dir, points = self._legacy_journal(tmp_path)
        state = load_journal(path)
        assert state.points == points
        assert state.jobs == 2
        assert state.finished == {0} and state.started == {0, 1}
        assert state.unfinished == [1]

        assert main(["status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 point(s), 1 finished, 0 failed, 1 started-unfinished" in out
        assert "jobs 2" in out
        assert "table4: 1/2 finished" in out

        assert main(["status", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["points"], payload["finished"], payload["running"]) == (
            2, 1, 1,
        )
        assert payload["jobs"] == 2

        assert main(["status", str(path), "--partial",
                     "--cache-dir", str(cache_dir)]) == 0
        assert "(partial: 1/2 point(s) finished)" in capsys.readouterr().out

    def test_resumes_and_compacts(self, tmp_path, capsys):
        path, cache_dir, _ = self._legacy_journal(tmp_path)
        before_state = load_journal(path)
        before, after = compact_journal(path)
        assert (before, after) == (5, 4)  # the superseded start is gone
        assert load_journal(path) == before_state
        # Surviving legacy lines are kept byte for byte.
        assert '"shard": 1' in path.read_text()

        rc = main(["--resume", str(path), "--json",
                   "--cache-dir", str(cache_dir)])
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert "2 point(s), 1 already finished, 1 to execute" in err
        [report] = json.loads(out)
        assert report["exp_id"] == "table4"
        assert report["execution"]["cached"] == 1
        assert report["execution"]["failed"] == 0
        assert load_journal(path).finished == {0, 1}


class TestCompaction:
    def _grown_journal(self, path):
        journal = SweepJournal(path)
        # An abandoned first generation, then the live one with retries.
        journal.sweep_start(POINTS, "v1", jobs=1)
        journal.point_start(0, "table4", 1)
        journal.sweep_start(POINTS, "v2", jobs=2)
        journal.point_start(0, "table4", 1)
        journal.point_fail(0, "table4", 1, "timeout", "slow")
        journal.point_start(0, "table4", 2)
        journal.point_finish(0, "table4", 2, cached=False)
        journal.point_start(1, "table4", 1)
        journal.point_fail(1, "table4", 1, "crash", "died")
        journal.point_start(2, "table5", 1)
        journal.close()
        return path

    def _state_key(self, state):
        return (
            state.points, state.code_version, state.finished, state.failed,
            state.started, state.jobs,
        )

    def test_compaction_preserves_resume_state(self, tmp_path):
        path = self._grown_journal(tmp_path / "sweep.jsonl")
        before_state = self._state_key(load_journal(path))
        before, after = compact_journal(path)
        assert after < before
        assert self._state_key(load_journal(path)) == before_state

    def test_superseded_records_dropped(self, tmp_path):
        path = self._grown_journal(tmp_path / "sweep.jsonl")
        compact_journal(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # One header + per point: last start and final outcome only.
        assert [r["event"] for r in records if r["event"] == "sweep"] == ["sweep"]
        assert records[0]["code_version"] == "v2"
        point0 = [r for r in records if r.get("index") == 0]
        assert [r["event"] for r in point0] == ["start", "finish"]
        assert point0[0]["attempt"] == 2  # the superseded attempt is gone
        point1 = [r for r in records if r.get("index") == 1]
        assert [r["event"] for r in point1] == ["start", "fail"]

    def test_torn_final_line_dropped(self, tmp_path):
        path = self._grown_journal(tmp_path / "sweep.jsonl")
        with open(path, "a") as fh:
            fh.write('{"event": "finish", "ind')  # crash mid-append
        before_state = self._state_key(load_journal(path))
        compact_journal(path)
        assert self._state_key(load_journal(path)) == before_state
        for line in path.read_text().splitlines():
            json.loads(line)  # every surviving line parses

    def test_compaction_is_idempotent(self, tmp_path):
        path = self._grown_journal(tmp_path / "sweep.jsonl")
        compact_journal(path)
        first = path.read_text()
        before, after = compact_journal(path)
        assert before == after
        assert path.read_text() == first

    def test_no_header_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"event": "start", "index": 0}\n')
        with pytest.raises(ValueError, match="no sweep header"):
            compact_journal(path)

    def test_cli_compact_subcommand(self, tmp_path, capsys):
        path = self._grown_journal(tmp_path / "sweep.jsonl")
        assert main(["compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "record(s)" in out

    def test_cli_compact_missing_journal(self, tmp_path, capsys):
        assert main(["compact", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot compact" in capsys.readouterr().err


class TestStatusSubcommand:
    def _interrupted_journal(self, tmp_path):
        """A sweep journal that looks mid-flight: 1 finished, 1 pending."""
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS[:2], "deadbeefdeadbeef", jobs=2)
        journal.point_start(0, "table4", 1)
        journal.point_finish(0, "table4", 1, cached=False)
        journal.close()
        return path

    def test_status_summary(self, tmp_path, capsys):
        path = self._interrupted_journal(tmp_path)
        assert main(["status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 point(s), 1 finished, 0 failed, 0 started-unfinished" in out
        assert "1 pending" in out
        assert "jobs 2" in out
        assert "table4: 1/2 finished" in out

    def test_status_json(self, tmp_path, capsys):
        path = self._interrupted_journal(tmp_path)
        assert main(["status", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 2
        assert payload["finished"] == 1
        assert payload["pending"] == 1
        assert payload["jobs"] == 2
        assert payload["experiments"]["table4"]["points"] == 2

    def test_status_json_counts_retried_point_as_running(
        self, tmp_path, capsys
    ):
        # Point 0 failed transiently and its second attempt has started.
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS[:2], "deadbeefdeadbeef", jobs=1)
        journal.point_start(0, "table4", 1)
        journal.point_fail(0, "table4", 1, "transient", "flaky")
        journal.point_start(1, "table4", 1)
        journal.point_finish(1, "table4", 1, cached=False)
        journal.point_start(0, "table4", 2)
        journal.close()
        assert main(["status", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["finished"], payload["failed"], payload["running"],
                payload["pending"]) == (1, 0, 1, 0)

    def test_status_bad_journal(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read sweep status" in capsys.readouterr().err

    def test_status_partial_renders_cached_reports(self, tmp_path, capsys):
        # A real (completed) sweep: every finished point has a cache
        # entry addressed under the journal's recorded code version.
        cache = tmp_path / "cache"
        assert main(["table4", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        journal = cache / "sweep-journal.jsonl"
        rc = main(["status", str(journal), "--partial",
                   "--cache-dir", str(cache)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(partial: 2/2 point(s) finished)" in out
        assert "table4" in out


class TestResumeWithBackend:
    def test_unfinished_points_reexecute_under_new_backend(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import faults

        cache = tmp_path / "cache"
        journal = cache / "sweep-journal.jsonl"
        # Sweep 1: the P100 point fails; the V100 point finishes+caches.
        plan = faults.FaultPlan((
            faults.FaultRule(kind="error", match="table5", scenario="P100",
                             attempts=99),
        ))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        assert main(["table5", "--json", "--cache-dir", str(cache)]) == 1
        capsys.readouterr()

        # Resume with --backend: the unfinished point re-executes under
        # the requested backend; the finished point keeps its recorded
        # provenance (served from the cache, scenario untouched).
        monkeypatch.delenv(faults.ENV_VAR)
        rc = main(["--resume", str(journal), "--json", "--backend", "auto",
                   "--cache-dir", str(cache)])
        out, err = capsys.readouterr()
        assert rc == 0, err
        reports = json.loads(out)
        assert reports[0]["execution"]["cached"] == 1
        points = {
            tuple(p["gpus"]): p for p in reports[0]["scenario"]["points"]
        }
        assert "backend" not in points[("V100",)]  # original provenance
        assert points[("P100",)]["backend"] == "auto"  # re-executed

    def test_resume_still_rejects_other_selection_args(self, tmp_path, capsys):
        rc = main(["--resume", str(tmp_path / "j.jsonl"),
                   "--scenario", "gpus=V100"])
        assert rc == 2
        assert "--backend" not in capsys.readouterr().err

