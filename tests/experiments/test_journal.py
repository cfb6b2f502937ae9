"""Tests for the append-only sweep journal and resume-state parsing."""

from __future__ import annotations

import json

import pytest

from repro.experiments.journal import (
    SweepJournal,
    compact_journal,
    default_journal_path,
    load_journal,
)
from repro.experiments.scenario import Scenario

POINTS = [
    ("table4", Scenario(gpus=("V100",))),
    ("table4", Scenario(gpus=("P100",))),
    ("table1", Scenario(gpus=("V100",))),
]


def _write_sweep(path, finished=(), failed=()):
    journal = SweepJournal(path)
    journal.sweep_start(POINTS, "cafecafecafecafe", jobs=2)
    for i in finished:
        journal.point_start(i, POINTS[i][0], 1)
        journal.point_finish(i, POINTS[i][0], 1, cached=False)
    for i in failed:
        journal.point_start(i, POINTS[i][0], 1)
        journal.point_fail(i, POINTS[i][0], 1, "crash", "worker died")
    journal.close()
    return journal


class TestRoundTrip:
    def test_records_parse_back(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _write_sweep(path, finished=[0, 2], failed=[1])
        state = load_journal(path)
        assert state.points == POINTS
        assert state.code_version == "cafecafecafecafe"
        assert state.finished == {0, 2}
        assert state.failed == {1: "crash"}
        assert state.started == {0, 1, 2}
        assert state.unfinished == [1]

    def test_finish_after_fail_clears_failure(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS, "v", jobs=1)
        journal.point_fail(0, "table4", 1, "timeout", "too slow")
        journal.point_finish(0, "table4", 2, cached=False)
        journal.close()
        state = load_journal(path)
        assert state.finished == {0}
        assert state.failed == {}

    def test_start_after_fail_clears_failure(self, tmp_path):
        # A transient failure backs off while another point runs; the
        # retry's start makes the point running again, not failed.
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS, "v", jobs=1)
        journal.point_start(0, "table4", 1)
        journal.point_fail(0, "table4", 1, "transient", "flaky")
        journal.point_start(1, "table4", 1)
        journal.point_finish(1, "table4", 1, cached=False)
        journal.point_start(0, "table4", 2)
        journal.close()
        state = load_journal(path)
        assert state.failed == {}
        assert state.finished == {1}
        assert state.started == {0, 1}
        compact_journal(path)
        assert load_journal(path) == state

    def test_fail_records_last_error_line_only(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS, "v", jobs=1)
        journal.point_fail(0, "table4", 1, "error", "Traceback...\nBoom: bad")
        journal.close()
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["error"] == "Boom: bad"


class TestGenerations:
    def test_last_sweep_header_wins(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _write_sweep(path, finished=[0, 1, 2])
        # A resume appends a fresh generation; earlier finishes are history.
        journal = SweepJournal(path)
        journal.sweep_start(POINTS, "v2", jobs=1)
        journal.point_finish(1, "table4", 1, cached=True)
        journal.close()
        state = load_journal(path)
        assert state.code_version == "v2"
        assert state.finished == {1}
        assert state.unfinished == [0, 2]


class TestCorruption:
    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _write_sweep(path, finished=[0])
        with open(path, "a") as fh:
            fh.write('{"event": "finish", "index": 1, "exp')  # crash mid-write
        state = load_journal(path)
        assert state.finished == {0}  # torn record ignored

    def test_torn_interior_line_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _write_sweep(path, finished=[0])
        with open(path, "a") as fh:
            fh.write('{"event": bad\n')
            fh.write(json.dumps({"event": "finish", "index": 1,
                                 "exp_id": "table4", "attempts": 1,
                                 "cached": False}) + "\n")
        with pytest.raises(ValueError, match="corrupt sweep journal"):
            load_journal(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read sweep journal"):
            load_journal(tmp_path / "nope.jsonl")

    def test_no_header_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"event": "finish", "index": 0}\n')
        with pytest.raises(ValueError, match="no sweep header"):
            load_journal(path)

    def test_out_of_range_records_ignored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.sweep_start(POINTS[:1], "v", jobs=1)
        journal.point_finish(7, "table4", 1, cached=False)  # stale index
        journal.point_finish(0, "table4", 1, cached=False)
        journal.close()
        state = load_journal(path)
        assert state.finished == {0}


class TestDegradation:
    def test_unwritable_journal_warns_and_noops(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        journal = SweepJournal(blocker / "sweep.jsonl")
        journal.sweep_start(POINTS, "v", jobs=1)  # must not raise
        journal.point_finish(0, "table4", 1, cached=False)
        journal.close()
        err = capsys.readouterr().err
        assert err.count("could not open sweep journal") == 1  # warned once


class TestDefaultPath:
    def test_lives_next_to_the_cache(self, tmp_path):
        assert default_journal_path(tmp_path) == tmp_path / "sweep-journal.jsonl"
