"""Chaos suite: the real CLI under deterministic fault plans.

Everything here runs ``repro-experiments`` as a *subprocess* with
``REPRO_FAULT_PLAN`` set, so the faults fire inside genuine pool workers
of a genuine CLI process — worker kills really break a
``ProcessPoolExecutor``, timeouts really terminate stuck processes, and
a mid-sweep SIGKILL really orphans a journal that ``--resume`` must then
pick up.  CI runs this suite standalone (``pytest -m chaos``) as its
chaos job; it is also part of the normal tier-1 run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.faults import FaultPlan, FaultRule

pytestmark = pytest.mark.chaos

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_cli(args, fault_plan, cache_dir, timeout=120, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_EXPERIMENTS_CACHE"] = str(cache_dir)
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan.to_json()
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


class TestChaosWorkerKill:
    def test_killed_worker_recovered_under_jobs2(self, tmp_path):
        # Acceptance scenario: a --jobs sweep with an injected worker
        # crash AND an injected twice-flaky point completes with a full
        # merged report, attempt counters visible in --json.
        plan = FaultPlan((
            FaultRule(kind="kill", match="table4", scenario="P100", attempts=1),
            FaultRule(kind="flaky", match="table1", attempts=2),
        ))
        proc = _run_cli(
            ["table4", "table1", "--json", "--jobs", "2", "--retries", "2",
             "--cache-dir", str(tmp_path)],
            plan, tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        reports = json.loads(proc.stdout)
        assert [r["exp_id"] for r in reports] == ["table4", "table1"]
        assert all(r["rows"] for r in reports)
        stats = {r["exp_id"]: r["execution"] for r in reports}
        assert stats["table4"]["crashes"] >= 1
        assert stats["table1"]["retries"] == 2  # twice-flaky took 3 attempts
        assert all(s["failed"] == 0 for s in stats.values())


class TestChaosTimeout:
    def test_stuck_worker_killed_and_retried(self, tmp_path):
        plan = FaultPlan((
            FaultRule(kind="delay", match="table4", scenario="V100",
                      delay=30.0, attempts=1),
        ))
        t0 = time.monotonic()
        proc = _run_cli(
            ["table4", "--json", "--jobs", "2", "--timeout", "1.5",
             "--retries", "1", "--cache-dir", str(tmp_path)],
            plan, tmp_path,
        )
        elapsed = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)[0]["execution"]
        assert stats["timeouts"] >= 1
        assert stats["failed"] == 0
        assert elapsed < 30  # the 30s sleeper was killed, not awaited


class TestChaosCacheWrite:
    def test_cache_write_failure_degrades_to_warning(self, tmp_path):
        plan = FaultPlan((FaultRule(kind="cache-write", match="*"),))
        proc = _run_cli(
            ["table4", "--json", "--jobs", "2", "--cache-dir", str(tmp_path)],
            plan, tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        reports = json.loads(proc.stdout)
        assert reports[0]["rows"]
        assert "could not write result cache entry" in proc.stderr
        # Nothing was published under the injected failure.
        assert not list(tmp_path.glob("table4-*.json"))


def _live_group_members(pgid):
    """Pids of the live (non-zombie) processes in process group ``pgid``."""
    proc_root = Path("/proc")
    if not proc_root.is_dir():
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    members = []
    for stat in proc_root.glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid pgrp ...": comm may hold spaces.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def _sigkill_mid_sweep(tmp_path):
    """SIGKILL a ``--jobs 2`` sweep once its two table5 points finished.

    The sweep's table4 points hang on an injected 60s delay.  The CLI
    runs in its own session, so its pool workers share its process
    group; they must all be gone within 10 s of the kill, because an
    orphaned worker notices its dead parent and exits.
    """
    journal = tmp_path / "sweep-journal.jsonl"
    plan = FaultPlan((
        FaultRule(kind="delay", match="table4", delay=60.0, attempts=9),
    ))
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_EXPERIMENTS_CACHE"] = str(tmp_path)
    env["REPRO_FAULT_PLAN"] = plan.to_json()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli",
         "table5", "table4", "--json", "--jobs", "2",
         "--cache-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        finished = 0
        while time.monotonic() < deadline:
            if journal.exists():
                finished = sum(
                    1 for line in journal.read_text().splitlines()
                    if '"finish"' in line
                )
                if finished >= 2:  # both table5 points landed
                    break
            if proc.poll() is not None:
                pytest.fail(
                    "sweep exited before it could be killed: "
                    + proc.communicate()[1].decode(errors="replace")
                )
            time.sleep(0.05)
        assert finished >= 2, "table5 points never finished"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        deadline = time.monotonic() + 10
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_group_members(proc.pid) == [], (
            "pool workers outlived the SIGKILLed sweep"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return journal


class TestChaosKillMidSweepThenResume:
    def test_sigkilled_sweep_resumes_only_unfinished(self, tmp_path):
        # SIGKILL the whole CLI once the journal shows the first
        # finishes, then resume without the fault plan.
        journal = _sigkill_mid_sweep(tmp_path)
        resumed = _run_cli(
            ["--resume", str(journal), "--json", "--cache-dir", str(tmp_path)],
            None, tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming sweep" in resumed.stderr
        reports = json.loads(resumed.stdout)
        assert [r["exp_id"] for r in reports] == ["table5", "table4"]
        stats = {r["exp_id"]: r["execution"] for r in reports}
        # Finished points came back from the cache (not re-executed)...
        assert stats["table5"]["cached"] == 2
        # ...and the interrupted points really executed this time.
        assert stats["table4"]["failed"] == 0
        assert all(r["rows"] for r in reports)


class TestChaosKillMidSweepThenStatus:
    def test_sigkilled_sweep_reports_progress_and_partials(self, tmp_path):
        # Streaming-aggregation acceptance: SIGKILL a sweep mid-flight,
        # then `status` must report progress from the journal alone, and
        # `status --partial` must render a merged report from the
        # finished points' cache entries.
        journal = _sigkill_mid_sweep(tmp_path)
        status = _run_cli(["status", str(journal), "--json"], None, tmp_path)
        assert status.returncode == 0, status.stderr
        payload = json.loads(status.stdout)
        assert payload["jobs"] == 2
        assert payload["finished"] >= 2
        assert payload["experiments"]["table5"]["finished"] == 2

        partial = _run_cli(
            ["status", str(journal), "--partial", "--cache-dir",
             str(tmp_path)],
            None, tmp_path,
        )
        assert partial.returncode == 0, partial.stderr
        assert "(partial: 2/2 point(s) finished)" in partial.stdout
        assert "Table 5" in partial.stdout or "table5" in partial.stdout
