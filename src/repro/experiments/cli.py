"""Command-line entry point: ``repro-experiments [ids...]``.

Runs the requested experiments (default: all) through the layered sweep
service — parallel across ``--jobs`` processes of one supervised pool
(per-point ``--timeout``, crash isolation, ``--retries`` with backoff),
served from the content-addressed result cache unless ``--no-cache`` —
and prints either ASCII reports or ``--json`` machine output.  Progress
is journaled next to the cache so an interrupted sweep can continue
with ``--resume``; two subcommands operate on that journal:

* ``repro-experiments status <journal>`` — overall and per-experiment
  progress of an (interrupted) sweep, with ``--partial`` rendering the
  merged reports recoverable from the result cache so far;
* ``repro-experiments compact <journal>`` — rewrite the append-only
  journal down to its live state (superseded attempt records dropped).

Exit codes:

* ``0`` — every experiment ran and landed within its tolerance,
* ``1`` — a driver failed or a report exceeded its reproduction tolerance,
* ``2`` — bad usage (unknown or repeated experiment id / malformed
  ``--scenario`` / an unusable ``--resume`` journal).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.experiments.journal import (
    SweepJournal,
    compact_journal,
    default_journal_path,
    load_journal,
)
from repro.experiments.registry import EXPERIMENTS, filter_by_tags, get_spec
from repro.experiments.scenario import apply_overrides
from repro.experiments.service import PointResult, ReportAggregator, RetryPolicy, SweepService
from repro.experiments.service.cache import cache_load, cache_path, default_cache_dir
from repro.sanitize import SANITIZE_MODES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'A Study of Single and "
            "Multi-device Synchronization Methods in Nvidia GPUs' on the "
            "simulated P100/V100/DGX-1 machines (and any scenario sweep "
            "beyond them)."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiments to run (default: all). Available: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list experiment ids with titles and tags, then exit",
    )
    parser.add_argument(
        "--tags", action="append", default=[], metavar="TAG[,TAG...]",
        help=(
            "keep only experiments carrying at least one of these tags "
            "(repeatable; applies to runs and --list) — e.g. --tags smoke "
            "selects CI's smoke subset"
        ),
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="run (experiment, scenario) points across N processes",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "wall-clock bound per point attempt; a stuck worker is killed "
            "and the point retried (implies the supervised pool path even "
            "with --jobs 1)"
        ),
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help=(
            "retry transient point failures (worker crash, timeout, "
            "TransientPointError) up to N times with exponential backoff; "
            "deterministic driver errors always fail fast (default: 2)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit reports as a JSON array instead of ASCII tables",
    )
    parser.add_argument(
        "--scenario", action="append", default=[], metavar="KEY=VALUE",
        help=(
            "override a scenario field for every selected experiment "
            "(repeatable), e.g. --scenario gpus=V100 --scenario "
            "interconnect=nvswitch --scenario gpu_counts=2,4,8 --scenario "
            "sync_strategy=atomic (strategy knobs ride in extras: "
            "--scenario extra.poll_ns=240 --scenario extra.workload_util=0.5)"
        ),
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help=(
            "simulation execution backend for every selected experiment's "
            "barrier ladders: engine (event-precise, the oracle) or auto "
            "(analytic closed forms where eligible, engine otherwise; what "
            "runs when unset); shorthand for --scenario backend=NAME"
        ),
    )
    parser.add_argument(
        "--sanitize", default=None, metavar="MODE",
        help=(
            "dynamic sync-checker mode for every selected experiment: off "
            "(default), synccheck (barrier-protocol + deadlock blame), "
            "racecheck (shared-memory happens-before), or full (both); "
            "shorthand for --scenario sanitize=MODE (see docs/sanitize.md)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (always recompute)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="result cache location (default: $REPRO_EXPERIMENTS_CACHE "
             "or ~/.cache/repro-experiments)",
    )
    parser.add_argument(
        "--journal", type=Path, default=None, metavar="PATH",
        help=(
            "sweep journal location (default: sweep-journal.jsonl next to "
            "the cache when caching is enabled); records point "
            "start/finish/failure for --resume"
        ),
    )
    parser.add_argument(
        "--resume", type=Path, default=None, metavar="JOURNAL",
        help=(
            "resume an interrupted sweep from its journal: the point list "
            "comes from the journal, finished points are served from the "
            "result cache, and only unfinished/failed points execute"
        ),
    )
    return parser


def _list_experiments(ids: List[str]) -> None:
    width = max(len(e) for e in EXPERIMENTS)
    for exp_id in ids:
        spec = EXPERIMENTS[exp_id]
        tags = f"  [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"{exp_id:<{width}}  {spec.title}{tags}")


def _status_main(argv: List[str]) -> int:
    """``repro-experiments status <journal>``: progress of a sweep."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments status",
        description=(
            "Report overall and per-experiment progress of an "
            "(interrupted) sweep from its journal; --partial additionally "
            "renders the merged reports recoverable from the result cache "
            "so far."
        ),
    )
    parser.add_argument("journal", type=Path, help="sweep journal to inspect")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the progress summary as JSON",
    )
    parser.add_argument(
        "--partial", action="store_true",
        help=(
            "render partial merged reports from the finished points' "
            "cache entries (merged as the sweep itself merges them)"
        ),
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="result cache the sweep wrote to (default: "
             "$REPRO_EXPERIMENTS_CACHE or ~/.cache/repro-experiments)",
    )
    args = parser.parse_args(argv)
    try:
        state = load_journal(args.journal)
    except ValueError as exc:
        print(f"cannot read sweep status: {exc}", file=sys.stderr)
        return 2

    total = len(state.points)
    finished = len(state.finished)
    failed = len(state.failed)
    running = len(state.started - state.finished - set(state.failed))
    pending = total - finished - failed - running
    per_exp: dict = {}
    for i, (exp_id, _) in enumerate(state.points):
        st = per_exp.setdefault(
            exp_id, {"points": 0, "finished": 0, "failed": 0}
        )
        st["points"] += 1
        if i in state.finished:
            st["finished"] += 1
        elif i in state.failed:
            st["failed"] += 1

    if args.as_json:
        print(json.dumps({
            "journal": str(args.journal),
            "code_version": state.code_version,
            "jobs": state.jobs,
            "points": total,
            "finished": finished,
            "failed": failed,
            "running": running,
            "pending": pending,
            "experiments": per_exp,
        }, indent=2))
    else:
        print(
            f"sweep: {total} point(s), {finished} finished, {failed} failed, "
            f"{running} started-unfinished, {pending} pending "
            f"(code {state.code_version}, jobs {state.jobs})"
        )
        for exp_id, st in per_exp.items():
            print(
                f"  {exp_id}: {st['finished']}/{st['points']} finished"
                + (f", {st['failed']} failed" if st["failed"] else "")
            )

    if args.partial:
        # Entries are addressed under the *recorded* code version, so the
        # interrupted sweep's results are found even if the source tree
        # has changed since.
        cache_root = Path(args.cache_dir or default_cache_dir())
        aggregator = ReportAggregator()
        for i in state.finished:
            exp_id, scen = state.points[i]
            report = cache_load(
                cache_path(cache_root, exp_id, scen, state.code_version)
            )
            if report is not None:
                aggregator.add(i, PointResult(exp_id, scen, report=report))
        found = aggregator.execution_stats()
        for merged in aggregator.reports(list(per_exp)):
            print()
            print(merged.render())
            print(
                f"(partial: {found[merged.exp_id]['points']}/"
                f"{per_exp[merged.exp_id]['points']} point(s) finished)"
            )
    return 0


def _compact_main(argv: List[str]) -> int:
    """``repro-experiments compact <journal>``: drop superseded records."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments compact",
        description=(
            "Rewrite an append-only sweep journal down to its live state: "
            "the last sweep header plus each point's latest start and final "
            "outcome.  Resume sees the identical state, in a fraction of "
            "the records."
        ),
    )
    parser.add_argument("journal", type=Path, help="sweep journal to compact")
    args = parser.parse_args(argv)
    try:
        before, after = compact_journal(args.journal)
    except ValueError as exc:
        print(f"cannot compact: {exc}", file=sys.stderr)
        return 2
    print(f"compacted {args.journal}: {before} -> {after} record(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Journal subcommands ride in front of the experiment-id grammar;
    # neither name is a registry id, so the dispatch is unambiguous.
    if argv and argv[0] == "status":
        return _status_main(argv[1:])
    if argv and argv[0] == "compact":
        return _compact_main(argv[1:])
    args = _build_parser().parse_args(argv)

    ids = args.ids or list(EXPERIMENTS)
    bad = [i for i in ids if i not in EXPERIMENTS]
    if bad:
        print(f"unknown experiment(s): {', '.join(bad)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    # A repeated id would run its driver again and print its report twice.
    repeated = list(dict.fromkeys(i for i in ids if ids.count(i) > 1))
    if repeated:
        print(f"repeated experiment id(s): {', '.join(repeated)}", file=sys.stderr)
        return 2

    if args.backend is not None:
        from repro.sim.backends import BACKEND_CHOICES

        if args.backend not in BACKEND_CHOICES:
            print(f"unknown backend: {args.backend}", file=sys.stderr)
            print(f"available: {', '.join(BACKEND_CHOICES)}", file=sys.stderr)
            return 2

    if args.sanitize is not None and args.sanitize not in SANITIZE_MODES:
        print(f"unknown sanitize mode: {args.sanitize}", file=sys.stderr)
        print(f"available: {', '.join(SANITIZE_MODES)}", file=sys.stderr)
        return 2

    # Tag filter: keep experiments carrying any requested tag.  This is
    # how CI selects its smoke subset (--tags smoke) without hard-coding
    # experiment names.
    tags = [t for chunk in args.tags for t in chunk.split(",") if t]
    if tags:
        try:
            ids = filter_by_tags(ids, tags)
        except ValueError as exc:
            print(f"bad --tags filter: {exc}", file=sys.stderr)
            return 2
        if not ids:
            print(
                f"no experiments match tags: {', '.join(tags)}", file=sys.stderr
            )
            return 2

    if args.list:
        _list_experiments(ids)
        return 0

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("--retries must be >= 0", file=sys.stderr)
        return 2
    # NaN fails both comparisons; past TIMEOUT_MAX the pool's wait()
    # overflows.
    if args.timeout is not None and not 0 < args.timeout <= threading.TIMEOUT_MAX:
        print(
            f"--timeout must be in (0, {threading.TIMEOUT_MAX:g}] seconds",
            file=sys.stderr,
        )
        return 2

    if args.resume is not None:
        # The journal *is* the sweep definition: mixing it with a fresh
        # point selection would silently run something else than what is
        # being resumed, and without the cache the finished points'
        # reports are unrecoverable.  --backend is the exception: it
        # changes *how* the remaining points execute, not *which* points
        # the sweep holds, so it composes with resume (below).
        if args.ids or args.scenario or tags or args.sanitize is not None:
            print(
                "--resume takes its experiments and scenarios from the "
                "journal; drop the ids / --scenario / --sanitize / --tags "
                "arguments",
                file=sys.stderr,
            )
            return 2
        if args.no_cache:
            print(
                "--resume needs the result cache to recover finished "
                "points; drop --no-cache",
                file=sys.stderr,
            )
            return 2
        try:
            state = load_journal(args.resume)
        except ValueError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        points = state.points
        if args.backend is not None:
            # Re-execute the unfinished points under the requested
            # backend; finished points keep their original scenario, so
            # they are still served from the cache with the provenance
            # they were recorded under.
            points = [
                (exp_id, scen) if i in state.finished
                else (exp_id, apply_overrides(scen, [f"backend={args.backend}"]))
                for i, (exp_id, scen) in enumerate(points)
            ]
        ids = list(dict.fromkeys(exp_id for exp_id, _ in points))
        done = len(state.finished)
        print(
            f"resuming sweep from {args.resume}: {len(points)} point(s), "
            f"{done} already finished, {len(points) - done} to execute",
            file=sys.stderr,
        )
    else:
        # Build the point list: default scenarios, with --scenario
        # overrides applied to each.  Overrides can collapse distinct
        # defaults into the same scenario (e.g. gpus=P100 onto per-GPU
        # defaults), so dedupe — Scenario is frozen/hashable and
        # dict.fromkeys preserves order.
        overrides = list(args.scenario)
        if args.backend is not None:
            # --backend is sugar for a scenario override so it reaches the
            # cache key, provenance and every driver through one path.
            overrides.append(f"backend={args.backend}")
        if args.sanitize is not None:
            # --sanitize rides the same scenario-override path, so a
            # sanitized run gets its own cache entries and provenance.
            overrides.append(f"sanitize={args.sanitize}")
        points = []
        try:
            for exp_id in ids:
                scens = dict.fromkeys(
                    apply_overrides(scen, overrides)
                    for scen in get_spec(exp_id).default_scenarios
                )
                points.extend((exp_id, scen) for scen in scens)
        except ValueError as exc:
            print(f"bad --scenario override: {exc}", file=sys.stderr)
            return 2

    # Journal: explicit path, the resumed journal (append to it), or the
    # default next to the cache.  --no-cache runs are throwaway by
    # declaration, so they carry no journal unless one is named.
    journal_path = args.journal
    if journal_path is None and args.resume is not None:
        journal_path = args.resume
    if journal_path is None and not args.no_cache:
        cache_root = args.cache_dir or default_cache_dir()
        journal_path = default_journal_path(cache_root)
    journal = SweepJournal(journal_path) if journal_path is not None else None

    service = SweepService(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        journal=journal,
    )
    results = service.run(points)
    if journal is not None:
        journal.close()

    exit_code = 0
    for res in results:
        if not res.ok:
            print(
                f"experiment {res.exp_id} [{res.scenario.describe()}] failed "
                f"({res.error_kind or 'error'}, {res.attempts} attempt(s)):\n"
                f"{res.error}",
                file=sys.stderr,
            )
            exit_code = 1
            continue
        if res.retries or res.crashes or res.timeouts:
            # Surface recoveries: the sweep finished, but not first try.
            print(
                f"note: {res.exp_id} [{res.scenario.describe()}] recovered "
                f"after {res.attempts} attempts "
                f"({res.crashes} crash(es), {res.timeouts} timeout(s))",
                file=sys.stderr,
            )
    reports = service.aggregator.reports(ids)

    # Tolerance gate: a reproduction that drifted past its per-experiment
    # bound is a failure even though the driver ran cleanly.
    for report in reports:
        tol = get_spec(report.exp_id).tolerance
        if (
            tol is not None
            and report.mean_rel_err is not None
            and report.mean_rel_err > tol
        ):
            print(
                f"experiment {report.exp_id} exceeded tolerance: "
                f"mean |err| {report.mean_rel_err:.1%} > {tol:.1%}",
                file=sys.stderr,
            )
            exit_code = 1

    if args.as_json:
        # Each report ships its execution counters: how many attempts the
        # sweep spent on the experiment's points, and how many were lost
        # to crashes/timeouts — the observability face of the supervised
        # runner (points that failed outright are counted here too, even
        # though their rows are absent).
        stats = service.aggregator.execution_stats()
        payload = []
        for report in reports:
            d = report.to_dict()
            d["execution"] = stats[report.exp_id]
            payload.append(d)
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.render())
            print()
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
