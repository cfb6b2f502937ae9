#!/usr/bin/env python3
"""Benchmark of ``repro-experiments`` as a user runs it.

Each sample is one finished invocation of the real console entry point,
``python -m repro.experiments.cli ... --json``, in a fresh interpreter,
timed from spawn to exit, import included.  One caller runs the
invocations back to back (a closed loop with one client): the next
starts only after the previous one and all its pool workers have
exited.  Every invocation's reports are checked against the digests in
``reference.json``.

On a shared host (a 2-vCPU Xeon VM, for instance) speed drifts by up to
2x over minutes.  So every timed invocation runs between two *yardsticks*,
fixed fresh interpreters that only import numpy, and the gated times
(``wall_s``, ``cpu_s``, ``setup_s``) are the median over invocations of
time / mean yardstick time, scaled by the yardstick's nominal 0.1 s: seconds
on a machine where the yardstick takes 0.1 s.  Code changes in ``repro``
move them; drift of the host cancels out.  The raw medians are printed
and saved beside them (``*_raw_s``, ``yardstick_s``).

Usage, from the root of the repository::

    python3 perfbench/run.py --workload registry-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every workload, both modes
    python3 perfbench/run.py --make-reference              # rewrite reference.json
    python3 perfbench/run.py --compare OLD.json NEW.json   # two saved results

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs traced invocations (spans recorded by ``tracer.py``
around each layer) beside untraced ones and reports the per-layer
metrics.  The last line of standard output is one JSON object; the
lines before it list every metric by name, unit and workload.  Each
result is also saved, with the machine's fingerprint, under
``.perfbench/results/``.  The exit code is 1 when an output is wrong
and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 7  # fresh interpreters per run for setup_s
IMPORT_REPEATS = 3  # -X importtime probes per traced run
MIN_SAMPLES = 3
DEADLINE_S = 170.0  # one whole run, whatever --seconds says

PLAIN = ("-m", "repro.experiments.cli")
SHIM = str(BENCH / "shim.py")
YARDSTICK = ("-c", "import numpy")
YARDSTICK_S = 0.1  # nominal: the scale of the reported times


@dataclass(frozen=True)
class Workload:
    reference: str  # key in reference.json: the experiment ids and digests
    args: Tuple[str, ...]  # CLI arguments besides the ids and the cache
    fresh_cache: bool  # a new empty --cache-dir for every invocation


WORKLOADS: Dict[str, Workload] = {
    "registry-cold": Workload("registry", ("--jobs", "1"), True),
    "registry-warm": Workload("registry", ("--jobs", "1"), False),
    "registry-jobs2": Workload("registry", ("--jobs", "2"), True),
    "sync-auto": Workload("sync-engine", ("--tags", "sync", "--backend", "auto"), True),
}

#: How reference.json is produced: every point on the event-precise engine.
REFERENCE_ARGS = {
    "registry": ("--no-cache", "--json"),
    "sync-engine": ("--tags", "sync", "--backend", "engine", "--no-cache", "--json"),
}

#: The fault-plan self-test: one point fails outright, one fails once.
SELF_TEST_IDS = ("table1", "table4", "fig8")
SELF_TEST_PLAN = json.dumps([
    {"kind": "error", "match": "table1"},
    {"kind": "flaky", "match": "fig8", "attempts": 1},
])

_deadline = time.perf_counter() + DEADLINE_S


# -- invoking the program -------------------------------------------------


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float  # user + sys of the process and every worker it reaped
    rss_mb: float  # largest peak RSS among the process and its workers
    returncode: int
    stdout: str
    stderr: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def child_env(**extra: str) -> Dict[str, str]:
    """The program from this checkout's ``src``, with its bytecode cache on
    as for any user, and nothing written outside the checkout."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "REPRO_FAULT_PLAN")
    }
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_EXPERIMENTS_CACHE"] = str(WORK / "default-cache")
    env.update(extra)
    return env


def invoke(argv: Sequence[str], env: Dict[str, str]) -> Invocation:
    """Run one fresh interpreter to exit; stop the clock only then."""
    remaining = _deadline - time.perf_counter()
    if remaining <= 0:
        raise TimeoutError("benchmark ran past its deadline")
    with tempfile.TemporaryFile("w+", dir=WORK) as out, \
            tempfile.TemporaryFile("w+", dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, stdout=out,
            stderr=err, start_new_session=True,
        )
        killer = threading.Timer(remaining, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the invocation left behind
        out.seek(0)
        err.seek(0)
        return Invocation(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out.read(), err.read(),
        )


# -- checking the outputs -------------------------------------------------

_PROVENANCE_NOTE = re.compile(r"backend=\S+ requested but ")
_OVER_TOLERANCE = re.compile(r"^experiment (\S+) exceeded tolerance", re.M)


def report_digest(report: Dict) -> str:
    """Digest of a ``--json`` report without execution counters or backend
    provenance, so a backend that gives the same numbers digests the same."""
    rep = {k: v for k, v in report.items() if k not in ("execution", "backend")}
    points = (rep.get("scenario") or {}).get("points", [])
    rep["scenario"] = {
        "points": [{k: v for k, v in p.items() if k != "backend"} for p in points]
    }
    rep["notes"] = [n for n in rep.get("notes", []) if not _PROVENANCE_NOTE.match(n)]
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()


def parse_reports(stdout: str) -> Dict[str, Dict]:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return {}
    return {r["exp_id"]: r for r in payload} if isinstance(payload, list) else {}


@dataclass
class Score:
    points: int = 0  # points attempted
    bad: int = 0  # failed, over tolerance, or differing from the reference
    attempts: int = 0  # driver dispatches, retries included
    failed: List[str] = field(default_factory=list)
    mismatched: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    abs_errs: List[float] = field(default_factory=list)


def score(run: Invocation, reference: Dict[str, Dict]) -> Score:
    """Count the points of one invocation that are not right."""
    s = Score()
    reports = parse_reports(run.stdout)
    over = set(_OVER_TOLERANCE.findall(run.stderr))
    for exp_id in sorted(set(reference) | set(reports)):
        want, rep = reference.get(exp_id), reports.get(exp_id)
        if rep is None:  # every point of it failed, or the CLI died
            s.points += want["points"]
            s.bad += want["points"]
            s.failed.append(exp_id)
            continue
        ex = rep["execution"]
        s.points += ex["points"]
        s.attempts += ex["attempts"]
        s.digests[exp_id] = report_digest(rep)
        if ex["failed"]:
            s.bad += ex["failed"]
            s.failed.append(exp_id)
        elif want is None or exp_id in over or s.digests[exp_id] != want["digest"]:
            s.bad += ex["points"]
            s.mismatched.append(exp_id)
        for row in rep["rows"]:
            paper, measured = row["paper"], row["measured"]
            if paper not in (None, 0) and measured is not None:
                s.abs_errs.append(abs((measured - paper) / paper))
    if run.returncode != 0 and s.bad == 0:
        s.bad = s.points  # a failure the reports do not explain
    return s


def load_reference() -> Dict[str, Dict[str, Dict]]:
    return json.loads(REFERENCE.read_text())["reports"]


# -- one benchmark run ----------------------------------------------------


class Bench:
    """The invocations of one workload under one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.references = load_reference()
        self.reference = self.references[self.workload.reference]
        self.rng = random.Random(seed)
        self.cache_root = WORK / "cache" / f"{name}-{seed}-{os.getpid()}"
        self.warm_cache = self.cache_root / "warm"
        self.serial = 0
        self.scores: List[Score] = []  # every checked invocation
        self.problems: List[str] = []

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)

    def argv(self, ids: Optional[Sequence[str]] = None,
             args: Optional[Sequence[str]] = None,
             fresh: bool = False) -> Tuple[List[str], Path]:
        """CLI arguments of the next invocation: the seed orders the ids."""
        if ids is None:
            ids = sorted(self.reference)
            self.rng.shuffle(ids)
        if fresh or self.workload.fresh_cache:
            self.serial += 1
            cache = self.cache_root / str(self.serial)
        else:
            cache = self.warm_cache
        extra = self.workload.args if args is None else args
        return [*ids, *extra, "--cache-dir", str(cache), "--json"], cache

    def run(self, mode: str = "plain", ids: Optional[Sequence[str]] = None,
            args: Optional[Sequence[str]] = None,
            reference: Optional[Dict[str, Dict]] = None,
            fresh: bool = False,
            **env: str) -> Tuple[Invocation, Score, Optional[Dict]]:
        """One checked invocation; traced ones also return their spans."""
        argv, cache = self.argv(ids, args, fresh)
        trace_dir = None
        if mode == "trace":
            trace_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="trace-"))
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            prog = [SHIM, "trace", *argv]
        else:
            prog = [*PLAIN, *argv]
        try:
            inv = invoke(prog, child_env(**env))
            layers = read_trace(trace_dir) if trace_dir is not None else None
        finally:
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
            if cache != self.warm_cache:
                shutil.rmtree(cache, ignore_errors=True)
        sc = score(inv, self.reference if reference is None else reference)
        return inv, sc, layers

    def checked(self, mode: str = "plain") -> Tuple[Invocation, Score, Optional[Dict]]:
        """A workload invocation whose outputs count towards the result."""
        inv, sc, layers = self.run(mode)
        self.scores.append(sc)
        if sc.failed or sc.mismatched:
            self.problems.append(
                f"{mode} invocation: failed {sc.failed or '-'}, "
                f"differs from reference {sc.mismatched or '-'}"
            )
        return inv, sc, layers

    def prepare(self) -> None:
        """Untimed: compile bytecode, fill the OS caches, prime the cache."""
        shutil.rmtree(self.warm_cache, ignore_errors=True)
        self.checked()

    def yardstick(self) -> float:
        inv = invoke(YARDSTICK, child_env())
        if inv.returncode != 0:
            self.problems.append(f"yardstick exited {inv.returncode}")
        return inv.wall_s

    def setup_probe(self) -> Invocation:
        """The CLI stopped just before its first point is dispatched."""
        argv, cache = self.argv()
        inv = invoke([SHIM, "setup", *argv], child_env())
        if cache != self.warm_cache:
            shutil.rmtree(cache, ignore_errors=True)
        if inv.returncode != 0:
            self.problems.append(f"setup probe exited {inv.returncode}")
        return inv


def closed_loop(seconds: float, step: Callable[[], float]) -> None:
    """Call ``step`` (which returns its wall time) until the next call
    would end past ``seconds``, but at least ``MIN_SAMPLES`` times."""
    start = time.perf_counter()
    walls: List[float] = []
    while True:
        walls.append(step())
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_SAMPLES and elapsed + statistics.median(walls) > seconds:
            return


def tail(values: Sequence[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten samples beyond it
    (nearest rank), and its rank; below 11 samples, the smallest."""
    xs = sorted(values)
    k = max(1, len(xs) - 10)
    return xs[k - 1], k


def measure(bench: Bench, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics, tracing off."""
    bench.prepare()
    yards = [bench.yardstick()]
    setup: List[Tuple[float, float]] = []  # (probe wall, yardstick wall)
    timed: List[Tuple[Invocation, float]] = []
    stride = 1

    def between_yardsticks(run: Callable[[], Invocation]) -> Tuple[Invocation, float]:
        inv = run()
        yards.append(bench.yardstick())
        return inv, (yards[-2] + yards[-1]) / 2

    def step() -> float:
        # Setup probes are spread over the run, not bunched at its start.
        nonlocal stride
        inv, yard = between_yardsticks(lambda: bench.checked()[0])
        timed.append((inv, yard))
        if len(timed) == 1:
            stride = max(1, round(seconds / inv.wall_s / (1.5 * SETUP_REPEATS)))
        if len(setup) < SETUP_REPEATS and (len(timed) - 1) % stride == 0:
            probe, probe_yard = between_yardsticks(bench.setup_probe)
            setup.append((probe.wall_s, probe_yard))
        return inv.wall_s + yards[-1]

    closed_loop(seconds, step)
    while len(setup) < SETUP_REPEATS:
        probe, probe_yard = between_yardsticks(bench.setup_probe)
        setup.append((probe.wall_s, probe_yard))

    def scaled(pairs: Sequence[Tuple[float, float]]) -> List[float]:
        return [t / yard * YARDSTICK_S for t, yard in pairs]

    walls = scaled([(inv.wall_s, yard) for inv, yard in timed])
    tail_s, rank = tail(walls)
    errs = bench.scores[-1].abs_errs
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_s,
        "setup_s": statistics.median(scaled(setup)),
        "cpu_s": statistics.median(scaled([(inv.cpu_s, yard) for inv, yard in timed])),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv, _ in timed),
        "paper_err_mean": sum(errs) / len(errs) if errs else 0.0,
        "wall_raw_s": statistics.median(inv.wall_s for inv, _ in timed),
        "cpu_raw_s": statistics.median(inv.cpu_s for inv, _ in timed),
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "yardstick_s": statistics.median(yards),
    }
    notes = [
        f"wall_tail_s is p{100 * rank / len(walls):.0f} of {len(walls)} "
        f"samples ({len(walls) - rank} beyond it)",
        f"setup_s is the median of {len(setup)} fresh interpreters",
    ]
    return metrics, notes


# -- the traced run -------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| *(\S+)", re.M)


def import_times(stderr: str) -> Dict[str, float]:
    total = repro_self = 0
    cumulative: Dict[str, int] = {}
    for self_us, cum_us, name in _IMPORT_LINE.findall(stderr):
        total += int(self_us)
        cumulative[name] = int(cum_us)
        if name == "repro" or name.startswith("repro."):
            repro_self += int(self_us)
    return {
        "import.total_ms": total / 1e3,
        "import.networkx_ms": cumulative.get("networkx", 0) / 1e3,
        "import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "import.repro_self_ms": repro_self / 1e3,
    }


def read_trace(trace_dir: Path) -> Dict:
    """Merge the span files every process of one invocation wrote."""
    layers: Dict[str, List[int]] = {}
    counts: Dict[str, int] = {}
    spans: List[Tuple] = []
    for path in sorted(trace_dir.glob("trace-*.json")):
        data = json.loads(path.read_text())
        for name, vals in data["layers"].items():
            acc = layers.setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
        spans.extend((data["pid"], *s) for s in data["spans"])
    return {"layers": layers, "counts": counts, "spans": spans}


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    covered, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            covered += b - a
            end = b
        elif b > end:
            covered += b - end
            end = b
    return covered


def layer_metrics(trace: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    layers, counts = trace.get("layers", {}), trace.get("counts", {})

    def ms(name: str) -> float:
        return layers.get(name, [0, 0, 0])[1] / 1e6

    def calls(name: str) -> int:
        return layers.get(name, [0, 0, 0])[0]

    def n(name: str) -> int:
        return counts.get(name, 0)

    def spans(name: str) -> List[Tuple]:
        return [s for s in trace.get("spans", ()) if s[1] == name]

    m: Dict[str, float] = {"cli.main_ms": ms("cli.main"), "service.run_ms": ms("service.run")}
    # Rendering: from the last layer the CLI called to the end of main.
    m["cli.render_ms"] = 0.0
    for main_pid, _, _, main_end, _ in spans("cli.main"):
        ends = [s[3] for s in trace["spans"] if s[0] == main_pid and s[1] != "cli.main"]
        m["cli.render_ms"] = (main_end - max(ends)) / 1e6 if ends else 0.0

    points = spans("execute_point")
    runs = spans("service.run")
    if runs and points:
        _, _, r0, r1, attrs = runs[0]
        run_ns = r1 - r0
        busy = sum(p[3] - p[2] for p in points)
        covered = _union_ns([(max(p[2], r0), min(p[3], r1)) for p in points])
        last: Dict[int, int] = {}
        for p in points:
            last[p[0]] = max(last.get(p[0], 0), p[3])
        m["service.overhead_ms"] = (run_ns - covered) / 1e6
        m["workers.pool_start_ms"] = (min(p[2] for p in points) - r0) / 1e6
        m["workers.busy_frac"] = busy / (attrs["jobs"] * run_ns)
        m["workers.tail_idle_ms"] = sum(max(last.values()) - e for e in last.values()) / 1e6
    else:
        for key in ("service.overhead_ms", "workers.pool_start_ms",
                    "workers.busy_frac", "workers.tail_idle_ms"):
            m[key] = 0.0
    for key in ("service.retries", "service.steals", "workers.slab_points",
                "workers.pickle_bytes_avoided", "cache.hits", "cache.misses",
                "cache.bytes_read", "cache.bytes_written", "serialize.bytes",
                "engine.instances", "engine.events", "simt.runs",
                "simt.fused_rounds", "simt.defuse_count", "simt.refuse_count",
                "backend.fallbacks"):
        m[key] = n(key)
    looked_up = m["cache.hits"] + m["cache.misses"]
    m["cache.hit_ratio"] = m["cache.hits"] / looked_up if looked_up else 0.0
    for key, layer in (
        ("cache.load_ms", "cache.load"), ("cache.store_ms", "cache.store"),
        ("cache.claim_wait_ms", "cache.claim_wait"),
        ("cache.code_version_ms", "cache.code_version"),
        ("journal.write_ms", "journal.write"),
        ("serialize.to_json_ms", "serialize.to_json"),
        ("serialize.from_json_ms", "serialize.from_json"),
        ("aggregate.add_ms", "aggregate.add"),
        ("aggregate.reports_ms", "aggregate.reports"),
        ("backend.analytic_ms", "backend.analytic"),
        ("backend.engine_ms", "backend.engine"),
        ("engine.run_ms", "engine.run"), ("simt.run_ms", "simt.run"),
        ("sync.run_rounds_ms", "sync.run_rounds"),
        ("reduction.make_input_ms", "reduction.make_input"),
        ("reduction.reduce_ms", "reduction.reduce"),
        ("reduction.latency_vs_size_ms", "reduction.latency_vs_size"),
    ):
        m[key] = ms(layer)
    for key, layer in (
        ("journal.records", "journal.write"),
        ("backend.analytic_runs", "backend.analytic"),
        ("backend.engine_runs", "backend.engine"),
        ("sync.run_rounds_calls", "sync.run_rounds"),
        ("reduction.make_input_calls", "reduction.make_input"),
        ("reduction.reduce_calls", "reduction.reduce"),
    ):
        m[key] = calls(layer)
    m["engine.events_per_ms"] = (
        m["engine.events"] / m["engine.run_ms"] if m["engine.run_ms"] else 0.0
    )
    drivers = [f"driver.{exp_id}" for exp_id in load_reference()["registry"]]
    for layer in drivers:
        m[f"{layer}_ms"] = ms(layer)
    m["driver.total_ms"] = sum(ms(layer) for layer in drivers)
    m["trace.execute_point_spans"] = len(points)
    return m


def trace_measure(bench: Bench, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics: traced invocations beside untraced ones."""
    bench.prepare()
    imports = []
    for _ in range(IMPORT_REPEATS):
        inv = invoke(["-X", "importtime", "-c", "import repro.experiments.cli"],
                     child_env())
        imports.append(import_times(inv.stderr))
    plain: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    self_ms: Dict[str, List[float]] = {}
    same_reports = spans_match = True

    def pair() -> float:
        # Alternate which of the two runs first, so drift cancels out of
        # trace.overhead_s.
        nonlocal same_reports, spans_match
        if len(plain) % 2:
            tinv, sc, trace = bench.checked("trace")
            inv, sc_plain, _ = bench.checked()
        else:
            inv, sc_plain, _ = bench.checked()
            tinv, sc, trace = bench.checked("trace")
        lm = layer_metrics(trace or {})
        for name, (_, _, self_ns) in (trace or {}).get("layers", {}).items():
            self_ms.setdefault(name, []).append(self_ns / 1e6)
        plain.append(inv.wall_s)
        traced.append(tinv.wall_s)
        layers.append(lm)
        same_reports &= sc.digests == sc_plain.digests
        spans_match &= lm["trace.execute_point_spans"] == sc.attempts
        return inv.wall_s + tinv.wall_s

    closed_loop(seconds, pair)
    metrics = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
    for key in imports[0]:
        metrics[key] = statistics.median(i[key] for i in imports)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    checks = [
        ("trace purity: traced reports equal untraced reports", same_reports),
        ("trace purity: execute_point spans = points attempted, in every "
         "traced invocation", spans_match),
        *self_test(bench),
        *workload_checks(bench, metrics),
    ]
    notes = [f"{len(traced)} traced and {len(plain)} untraced invocations",
             "self time by layer (span minus its child spans, median ms):"]
    by_self = sorted(((statistics.median(v), k) for k, v in self_ms.items()), reverse=True)
    notes.extend(f"  {name:<30} {ms:10.3f}" for ms, name in by_self)
    for label, ok in checks:
        notes.append(f"check {'PASS' if ok else 'FAIL'}: {label}")
        if not ok:
            bench.problems.append(f"check failed: {label}")
    return metrics, notes


def self_test(bench: Bench) -> List[Tuple[str, bool]]:
    """One invocation under a fault plan: an ``error`` rule on one point
    and a ``flaky`` rule on another.  The error point must add exactly
    one point to the failures; the flaky one only a retry."""
    ref = {k: bench.references["registry"][k] for k in SELF_TEST_IDS}
    _, sc, trace = bench.run(
        "trace", ids=SELF_TEST_IDS, args=("--jobs", "1"), reference=ref,
        fresh=True, REPRO_FAULT_PLAN=SELF_TEST_PLAN,
    )
    retries = layer_metrics(trace or {})["service.retries"]
    return [
        (f"fault self-test: error rule adds {sc.bad}/{sc.points} to failed_frac "
         f"(expected 1/{sc.points}, on table1 only)",
         sc.bad == 1 and sc.failed == ["table1"] and not sc.mismatched),
        (f"fault self-test: flaky rule shows as {retries:.0f} service.retries "
         "(expected 1)", retries == 1),
    ]


def workload_checks(bench: Bench, m: Dict[str, float]) -> List[Tuple[str, bool]]:
    if bench.name == "registry-warm":
        return [
            ("warm cache: engine.events = 0", m["engine.events"] == 0),
            ("warm cache: cache.hit_ratio = 1", m["cache.hit_ratio"] == 1.0),
        ]
    if bench.name == "sync-auto":
        _, sc, trace = bench.run(
            "trace", args=("--tags", "sync", "--backend", "engine"), fresh=True,
        )
        engine_events = layer_metrics(trace or {})["engine.events"]
        return [
            ("analytic backend ran: backend.analytic_runs > 0",
             m["backend.analytic_runs"] > 0),
            (f"engine.events {m['engine.events']:.0f} below "
             f"{engine_events:.0f} on the engine backend",
             m["engine.events"] < engine_events and not sc.bad),
        ]
    return []


# -- machine fingerprint --------------------------------------------------


def calibration_ms() -> float:
    """Median ms of a fixed pure-Python loop: a speed probe of this CPU."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def fingerprint() -> Dict[str, object]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy,
        "calibration_ms": round(calibration_ms(), 3),
    }


def comparable(a: Dict, b: Dict) -> List[str]:
    """Why two fingerprints are not comparable (empty when they are)."""
    why = [f"{k}: {a.get(k)} vs {b.get(k)}" for k in ("nproc", "cpu", "python", "numpy")
           if a.get(k) != b.get(k)]
    ca, cb = a.get("calibration_ms") or 0, b.get("calibration_ms") or 0
    if not ca or not cb or abs(ca - cb) / min(ca, cb) > 0.2:
        why.append(f"calibration loop: {ca} ms vs {cb} ms (more than 20% apart)")
    return why


# -- modes ----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: Dict) -> Dict:
    """One run: measure, print every metric, save the result."""
    global _deadline
    _deadline = time.perf_counter() + DEADLINE_S
    bench = Bench(name, seed)
    try:
        if trace:
            metrics, notes = trace_measure(bench, seconds)
        else:
            metrics, notes = measure(bench, seconds)
    finally:
        bench.close()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    attempted = sum(s.points for s in bench.scores)
    failed = sum(s.bad for s in bench.scores)
    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    fp = fingerprint()
    print(f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {why[name]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for mname, val in result["metrics"].items():
        print(f"{mname:<32} {val['value']:>16.6g} {val['unit']:<8} {name}")
    print("not in BENCHMARK.json:")
    for mname in sorted(set(metrics) - set(result["metrics"])):
        print(f"{mname:<32} {metrics[mname]:>16.6g} {'':<8} {name}")
    print(f"{'failed_frac':<32} {failed / max(attempted, 1):>16.6g} {'ratio':<8} "
          f"{name}  ({failed} of {attempted} points)")
    for note in notes + bench.problems:
        print(f"  {note}")
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "fingerprint": fp, **result,
              "ungated": {k: v for k, v in metrics.items() if k not in result["metrics"]},
              "notes": notes + bench.problems}
    WORK.joinpath("results", f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return result


def make_reference() -> int:
    """Rewrite reference.json from engine-backend runs of the current code."""
    out: Dict[str, Dict[str, Dict]] = {}
    for key, args in REFERENCE_ARGS.items():
        inv = invoke([*PLAIN, *args], child_env())
        reports = parse_reports(inv.stdout)
        if inv.returncode != 0 or not reports:
            print(f"reference run {key} failed:\n{inv.stderr}", file=sys.stderr)
            return 1
        out[key] = {
            exp_id: {"points": r["execution"]["points"], "digest": report_digest(r)}
            for exp_id, r in sorted(reports.items())
        }
    REFERENCE.write_text(json.dumps({
        "about": "sha256 of each canonical --json report, every point on the "
                 "event-precise engine; regenerate with "
                 "python3 perfbench/run.py --make-reference",
        "reports": out,
    }, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def compare(old_path: str, new_path: str) -> int:
    """Print two saved results side by side, if their machines match."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    why = comparable(old["fingerprint"], new["fingerprint"])
    if why:
        print("not comparable: " + "; ".join(why))
        return 3
    for mname, val in new["metrics"].items():
        before = old["metrics"].get(mname, {}).get("value")
        change = (f"{(val['value'] - before) / before:+.1%}" if before else "-")
        shown = "-" if before is None else f"{before:.6g}"
        print(f"{mname:<32} {shown:>14} {val['value']:>14.6g} {val['unit']:<8} {change}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "experiments" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads(SPEC.read_text())
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = [
        run_workload(name, args.seed, args.seconds, trace, spec)
        for trace in (False, True) for name in WORKLOADS
    ]
    ok = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
