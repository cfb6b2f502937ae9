"""Start-up contract: what importing the CLI and serving cache hits load.

A warm ``repro-experiments`` run reads cached reports and renders them;
it must not pay for the simulator.  Drivers are named by module in the
registry and imported on first call, ``import repro`` resolves its
public names on first access, as do ``repro.core``, ``repro.cudasim``,
``repro.microbench`` and ``repro.sanitize``, and the pool path imports
the driver modules of the points that miss the cache once in the parent
before forking.  A run imports only what it executes: the
synchronization study never loads numpy or a module it does not run,
and only a sweep that computes on a pool loads the process pool or
``concurrent.futures``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.registry import EXPERIMENTS, LazyDriver, get_spec, load_drivers
from repro.experiments.service import scheduler

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

# Run in a fresh interpreter so no other test's imports leak in.
_WARM_RUN = """
import sys
from repro.experiments.cli import main
rc = main(["table4", "--json", "--cache-dir", sys.argv[1]])
heavy = sorted(
    m for m in sys.modules
    if m in ("numpy", "networkx", "repro.sim.engine")
    or m.startswith("repro.experiments.exp_")
)
print(rc, *heavy, file=sys.stderr)
"""


def test_warm_cli_run_imports_no_simulator(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)

    def fresh(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            timeout=60, env=env,
        )

    prime = fresh("-m", "repro.experiments.cli", "table4", "--cache-dir", str(tmp_path))
    assert prime.returncode == 0, prime.stderr
    proc = fresh("-c", _WARM_RUN, str(tmp_path))
    [report] = json.loads(proc.stdout)
    assert report["execution"]["cached"] == report["execution"]["points"] == 2
    assert proc.stderr.split() == ["0"], proc.stderr


# A fresh interpreter runs the CLI with argv[1] (JSON) and prints, as its
# last stderr line, the exit code and which modules of argv[2] it loaded.
_LOADED_AFTER = """
import json, sys
from repro.experiments.cli import main
rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, sorted(set(json.loads(sys.argv[2])) & set(sys.modules))]),
      file=sys.stderr)
"""


def _run_watching(cli_args, watched):
    """Run the CLI in a fresh interpreter: its process and [exit code, loaded]."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(cli_args), json.dumps(watched)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stderr.splitlines()[-1])


def _loaded_after(cli_args, watched):
    return _run_watching(cli_args, watched)[1]


@pytest.mark.parametrize(
    "mode",
    [["--backend", "auto"], ["--backend", "engine"], ["--sanitize", "full"]],
    ids=["auto", "engine", "sanitize-full"],
)
def test_sync_study_imports_no_numpy(mode):
    args = ["--tags", "sync", "--no-cache", "--json", *mode]
    assert _loaded_after(args, ["numpy"]) == [0, []]


# Modules a synchronization study never executes; only an eager package
# export or a module-level import in the sweep service would load them.
_SYNC_UNUSED = [
    "repro.core.advisor",
    "repro.core.perfmodel",
    "repro.core.pitfalls",
    "repro.cudasim.runtime",
    "repro.cudasim.timeline",
    "repro.microbench.implicit",
    "repro.microbench.inter_sm",
    "repro.sanitize.checker",
    "repro.sanitize.hb",
    "concurrent.futures",
    "traceback",
]


@pytest.mark.parametrize("backend", ["auto", "engine"])
def test_sync_study_imports_only_what_it_runs(backend):
    args = ["--tags", "sync", "--no-cache", "--json", "--backend", backend]
    assert _loaded_after(args, _SYNC_UNUSED) == [0, []]


def test_warm_run_imports_no_pool_or_checker(tmp_path):
    args = ["table4", "--json", "--cache-dir", str(tmp_path)]
    assert _loaded_after(args, []) == [0, []]  # primes the cache
    watched = [
        "concurrent.futures",
        "logging",
        "traceback",
        "repro.sanitize.checker",
        "repro.sanitize.hb",
        "repro.sim.backends",
    ]
    assert _loaded_after(args, watched) == [0, []]


def test_warm_pooled_run_starts_no_pool(tmp_path):
    # Every point is a cache hit, served before any pool would start, so
    # neither the drivers (numpy) nor the pool's modules load.
    args = ["table4", "table5", "--json", "--cache-dir", str(tmp_path)]
    assert _loaded_after(args, []) == [0, []]  # primes the cache
    watched = ["numpy", "multiprocessing", "concurrent.futures.process"]
    proc, loaded = _run_watching([*args, "--jobs", "2"], watched)
    assert loaded == [0, []]
    reports = json.loads(proc.stdout)
    assert [r["exp_id"] for r in reports] == ["table4", "table5"]
    for report in reports:
        assert report["execution"]["cached"] == report["execution"]["points"] > 0


def test_serial_sweep_imports_no_process_pool():
    args = ["table4", "--jobs", "1", "--no-cache", "--json"]
    watched = ["multiprocessing", "concurrent.futures.process"]
    assert _loaded_after(args, watched) == [0, []]


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_driver_resolves_to_named_function(exp_id):
    driver = EXPERIMENTS[exp_id].driver
    assert isinstance(driver, LazyDriver)
    fn = getattr(importlib.import_module(driver.module), driver.name)
    assert (fn.__module__, fn.__name__) == (driver.module, driver.name)
    assert driver.load() is fn


def test_load_drivers_sees_through_wrappers(monkeypatch):
    loaded = []
    monkeypatch.setattr(LazyDriver, "load", lambda self: loaded.append(self.name))
    fig8 = get_spec("fig8")
    wrapped = functools.wraps(fig8.driver)(lambda scenario: fig8.driver(scenario))
    monkeypatch.setitem(registry.EXPERIMENTS, "fig8", replace(fig8, driver=wrapped))
    monkeypatch.setitem(
        registry.EXPERIMENTS, "table4",
        replace(get_spec("table4"), driver=lambda scenario: None),
    )
    load_drivers(["fig8", "table4", "fig8"])
    assert loaded == ["run_fig8"]


# load_drivers over the whole registry, then every default point run
# in-process, as a forked pool worker runs them; prints the repro modules
# the points imported after load_drivers.
_AFTER_LOAD_DRIVERS = """
import json, sys
from repro.experiments.registry import EXPERIMENTS, load_drivers
from repro.experiments.service.workers import execute_point
load_drivers(EXPERIMENTS)
before = set(sys.modules)
for exp_id, spec in EXPERIMENTS.items():
    for scen in spec.default_scenarios:
        assert execute_point(exp_id, scen, use_cache=False).ok, exp_id
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""


def test_workers_import_nothing_after_load_drivers():
    # A driver module that defers one of its imports to call time, or a
    # lazy package a driver's function resolves only when called, would
    # be imported again in every forked worker.
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    proc = subprocess.run(
        [sys.executable, "-c", _AFTER_LOAD_DRIVERS],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_pool_imports_drivers_before_forking(monkeypatch, tmp_path):
    calls = []

    class Stop(Exception):
        pass

    def fake_pool(workers):
        calls.append(("pool", workers))
        raise Stop

    monkeypatch.setattr(
        scheduler, "load_drivers", lambda ids: calls.append(("load", list(ids)))
    )
    monkeypatch.setattr(scheduler, "WorkerPool", fake_pool)
    points = [
        (exp_id, scen)
        for exp_id in ("table4", "fig8")
        for scen in get_spec(exp_id).default_scenarios
    ]
    sweep = scheduler.SweepService(jobs=2, cache_dir=tmp_path)
    with pytest.raises(Stop):
        sweep.run(points)
    assert calls == [("load", ["table4", "table4", "fig8"]), ("pool", 2)]


def test_top_level_names_still_import():
    import repro
    from repro import V100, KernelEnv, Node, this_grid
    from repro.core.groups import KernelEnv as core_env
    from repro.sim.arch import V100 as arch_v100
    from repro.sim.node import Node as sim_node

    assert (V100, KernelEnv, Node) == (arch_v100, core_env, sim_node)
    assert callable(this_grid)
    assert all(hasattr(repro, name) for name in repro.__all__)
    with pytest.raises(AttributeError):
        repro.no_such_name
