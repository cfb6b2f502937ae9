"""Tests for the layered sweep service: queue, pool, aggregator, journal.

The service decomposes sweep execution into four seams
(``queue -> scheduler -> workers -> aggregate``); these tests pin each
seam's contract in isolation plus the cross-layer invariants: pooled
execution produces byte-identical reports to serial, and the
``status``/``compact`` subcommands read/rewrite the journal faithfully
(including journals written by older versions).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.journal import (
    SweepJournal,
    compact_journal,
    load_journal,
)
from repro.experiments.scenario import Scenario
from repro.experiments.service import (
    JobQueue,
    ReportAggregator,
    SweepService,
    SweepStats,
    cache,
    execute_point,
)
from repro.experiments.service.queue import (
    CLAIMED,
    DONE,
    FAILED,
    PENDING,
    PointResult,
)

POINTS = [
    ("table4", Scenario(gpus=("V100",))),
    ("table4", Scenario(gpus=("P100",))),
    ("table5", Scenario(gpus=("V100",))),
    ("table5", Scenario(gpus=("P100",))),
]


def _result(exp_id, scen, ok=True):
    if ok:
        from repro.experiments.base import ExperimentReport

        return PointResult(exp_id, scen, report=ExperimentReport(exp_id, "t"))
    return PointResult(exp_id, scen, error="boom", error_kind="error")


class TestJobQueue:
    def test_from_points_keeps_input_order(self):
        q = JobQueue.from_points(POINTS)
        assert len(q) == 4
        for i, (job, (exp_id, scen)) in enumerate(zip(q, POINTS)):
            assert (job.index, job.exp_id, job.scenario) == (i, exp_id, scen)
            assert job.state == PENDING

    def test_lifecycle_transitions(self):
        q = JobQueue.from_points(POINTS)
        job = q.jobs[0]
        q.claim(job)
        assert job.state == CLAIMED and not job.settled
        q.requeue(job, ready_at=123.0)
        assert job.state == PENDING and job.ready_at == 123.0
        q.finish(job, _result(*POINTS[0]))
        assert job.state == DONE and job.settled
        q.fail(q.jobs[1], _result(*POINTS[1], ok=False))
        assert q.jobs[1].state == FAILED
        assert q.unsettled == 2

    def test_ready_respects_backoff(self):
        q = JobQueue.from_points(POINTS)
        q.jobs[0].ready_at = 100.0
        ready = q.ready(now=50.0)
        assert q.jobs[0] not in ready
        assert q.jobs[1] in ready
        assert q.ready(now=150.0)[0] is q.jobs[0]  # input order

    def test_results_in_input_order(self):
        q = JobQueue.from_points(POINTS)
        # Settle out of order; results() must come back by input position.
        for i in (2, 0, 3, 1):
            q.finish(q.jobs[i], _result(*POINTS[i]))
        assert [r.exp_id for r in q.results()] == [e for e, _ in POINTS]

    def test_from_journal_queues_everything_pending(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS, "cafecafecafecafe", jobs=2)
        journal.point_start(0, "table4", 1)
        journal.point_finish(0, "table4", 1, cached=False)
        journal.close()
        q = JobQueue.from_points(load_journal(path).points)
        # Finished points re-enter as pending: resume recovers their
        # reports through the cache, not by trusting the journal.
        assert all(job.state == PENDING for job in q)
        assert [(j.exp_id, j.scenario) for j in q] == POINTS


class TestAggregator:
    def test_streaming_fold_and_order(self):
        agg = ReportAggregator()
        for i in (3, 0, 2, 1):
            agg.add(i, _result(*POINTS[i]))
        assert len(agg) == 4
        assert [r.exp_id for r in agg.results()] == [e for e, _ in POINTS]
        assert agg.experiment_ids() == ["table4", "table5"]

    def test_partial_report_none_without_ok_results(self):
        agg = ReportAggregator()
        assert agg.partial_report("table4") is None
        agg.add(0, _result(*POINTS[0], ok=False))
        assert agg.partial_report("table4") is None

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
        # Every settled point was streamed into the aggregator...
        assert len(service.aggregator) == len(POINTS)
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

