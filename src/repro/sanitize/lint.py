"""``repro-lint`` — the static half of the sanitizer.

An AST-based linter for sync-API misuse in simulator and driver code:
the bug classes that type checkers and generic linters cannot see because
they are *protocol* errors of this codebase (generator-based barrier
calls, strategy cost-model bypasses, cache-poisoning nondeterminism).

Rules (catalog with examples in ``docs/sanitize.md``):

========  ==============================================================
SAN101    ``arrive``/``wait``/``sync`` called as a bare statement — the
          generator is created and discarded, the barrier never runs;
          the call must be driven (``yield from group.sync(...)``).
SAN102    ``yield Timeout(...)`` constructed inline inside ``repro.sync``
          code — scope/strategy delays must flow through the strategy
          cost model (named ``Timeout`` constants or strategy methods),
          not ad-hoc literals.
SAN103    import or use of the deprecated ``simulate_grid_sync`` /
          ``simulate_multigrid_sync`` shims (superseded by the scope
          classes; kept only for the pinned passthrough tests).
SAN104    wall-clock reads (``time.time``, ``perf_counter``,
          ``datetime.now``, ``time.sleep``) inside experiment drivers —
          driver output must be a pure function of the scenario or the
          content-addressed result cache is poisoned.
SAN105    unseeded ``random``/``np.random`` module calls under
          ``src/repro`` — same cache-poisoning hazard as SAN104.
SAN106    ``scenario.extra("extra.foo")`` — extras keys are stored with
          the ``extra.`` namespace already stripped, so a prefixed
          lookup can never match and silently returns the default.
SAN107    ``except``/``except Exception`` whose body is only ``pass`` —
          a swallowed engine error turns a diagnosable failure into a
          silent wrong answer (narrow the type or at least record it).
SAN108    ``run(detect_deadlock=False)`` outside ``repro.sim`` — turning
          the engine's deadlock detection off in workload/driver code
          reintroduces the bare hang the sanitizer exists to kill.
SAN109    direct ``ProcessPoolExecutor(...)`` construction outside
          ``repro.experiments.service.workers`` — pool lifecycle (crash
          blame, restart, exit with a killed parent) is owned by the
          worker layer;
          ad-hoc pools bypass the sweep service's supervision.
========  ==============================================================

Baseline workflow: ``lint-baseline.json`` (repo root) holds fingerprints
of accepted pre-existing violations; CI fails only on *new* ones.
Fingerprints hash (rule, path, stripped source line) — not line numbers —
so unrelated edits above a baselined line do not invalidate it.

Exit codes: 0 clean (or all violations baselined), 1 new violations,
2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["LintViolation", "RULES", "lint_source", "lint_paths", "main"]

BASELINE_VERSION = 1
DEFAULT_BASELINE = "lint-baseline.json"

#: rule id -> (summary, docs anchor)
RULES: Dict[str, Tuple[str, str]] = {
    "SAN101": (
        "sync generator created and discarded (needs 'yield from')",
        "docs/sanitize.md#san101",
    ),
    "SAN102": (
        "raw 'yield Timeout(...)' in sync scope/strategy code",
        "docs/sanitize.md#san102",
    ),
    "SAN103": (
        "deprecated simulate_grid_sync/simulate_multigrid_sync shim",
        "docs/sanitize.md#san103",
    ),
    "SAN104": (
        "wall-clock/nondeterminism in an experiment driver",
        "docs/sanitize.md#san104",
    ),
    "SAN105": (
        "unseeded random module call in simulator code",
        "docs/sanitize.md#san105",
    ),
    "SAN106": (
        "extras lookup with un-stripped 'extra.' namespace",
        "docs/sanitize.md#san106",
    ),
    "SAN107": (
        "broad except clause that silently swallows the error",
        "docs/sanitize.md#san107",
    ),
    "SAN108": (
        "engine deadlock detection disabled outside repro.sim",
        "docs/sanitize.md#san108",
    ),
    "SAN109": (
        "ProcessPoolExecutor built outside the sweep service worker layer",
        "docs/sanitize.md#san109",
    ),
}

_SYNC_CALL_NAMES = ("arrive", "wait", "sync")
#: Receivers whose arrive/wait/sync are not barrier generators.
_SYNC_CALL_EXEMPT_RECEIVERS = frozenset(
    {"os", "time", "signal", "subprocess", "proc", "pool", "executor"}
)
_DEPRECATED_SHIMS = frozenset({"simulate_grid_sync", "simulate_multigrid_sync"})
_WALL_CLOCK = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "sleep"},
    "datetime": {"now", "utcnow", "today"},
}
_RANDOM_RECEIVERS = frozenset({"random"})
#: Seeded-generator constructors: deterministic by construction, exempt
#: from SAN105 (``np.random.default_rng(seed)`` is the *fix*, not the bug).
_SEEDED_RANDOM_OK = frozenset({"default_rng", "SeedSequence", "Generator"})


class LintViolation:
    """One rule hit: location + the source line it fingerprints to."""

    __slots__ = ("rule", "path", "line", "col", "message", "source_line")

    def __init__(
        self, rule: str, path: str, line: int, col: int, message: str,
        source_line: str,
    ):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.source_line = source_line

    @property
    def fingerprint(self) -> str:
        """Stable id: hashes the stripped line text, not its number, so
        a baselined violation survives edits elsewhere in the file."""
        key = f"{self.rule}:{self.path}:{self.source_line.strip()}"
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]

    def render(self) -> str:
        anchor = RULES[self.rule][1]
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message} [{anchor}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


def _receiver_name(func: ast.AST) -> Optional[str]:
    """Leftmost/innermost receiver identifier of an attribute chain."""
    node = func
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _attr_chain(func: ast.AST) -> List[str]:
    """['np', 'random', 'randint'] for ``np.random.randint``."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


class _Checker(ast.NodeVisitor):
    """Single-pass rule evaluation over one module's AST."""

    def __init__(self, path: str, source_lines: List[str], context: Dict[str, bool]):
        self.path = path
        self.lines = source_lines
        self.ctx = context
        self.violations: List[LintViolation] = []

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        self.violations.append(
            LintViolation(rule, self.path, line, col, message, text)
        )

    # -- SAN101 / SAN104 / SAN105 / SAN106 / SAN108 (calls) --------------

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            name = call.func.attr
            if name in _SYNC_CALL_NAMES:
                receiver = _receiver_name(call.func)
                if receiver not in _SYNC_CALL_EXEMPT_RECEIVERS:
                    self._add(
                        "SAN101", node,
                        f"bare '{name}()' call discards the barrier "
                        f"generator; drive it with 'yield from'",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if (
            self.ctx["src"]
            and not self.ctx["workers"]
            and chain
            and chain[-1] == "ProcessPoolExecutor"
        ):
            self._add(
                "SAN109", node,
                "direct ProcessPoolExecutor construction bypasses the "
                "sweep service's pool supervision; use "
                "repro.experiments.service.workers.WorkerPool",
            )
        if len(chain) >= 2:
            head, attr = chain[0], chain[-1]
            if (
                self.ctx["driver"]
                and head in _WALL_CLOCK
                and attr in _WALL_CLOCK[head]
            ):
                self._add(
                    "SAN104", node,
                    f"'{'.'.join(chain)}' makes driver output depend on "
                    f"wall-clock state and poisons the result cache",
                )
            if (
                self.ctx["src"]
                and attr not in _SEEDED_RANDOM_OK
                and (
                    head in _RANDOM_RECEIVERS
                    or (len(chain) >= 3 and chain[-2] == "random")
                )
            ):
                self._add(
                    "SAN105", node,
                    f"'{'.'.join(chain)}' draws from global random state; "
                    f"thread a seeded generator through instead",
                )
            if attr in ("extra", "extra_float", "extra_int") and node.args:
                arg = node.args[0]
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("extra.")
                ):
                    self._add(
                        "SAN106", node,
                        f"extras keys are stored without the 'extra.' "
                        f"prefix; '{arg.value}' can never match",
                    )
            if attr == "run" and not self.ctx["sim"]:
                for kw in node.keywords:
                    if (
                        kw.arg == "detect_deadlock"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    ):
                        self._add(
                            "SAN108", node,
                            "detect_deadlock=False reintroduces the bare "
                            "hang; let the engine raise DeadlockError",
                        )
        self.generic_visit(node)

    # -- SAN102 (yields) --------------------------------------------------

    def visit_Yield(self, node: ast.Yield) -> None:
        if (
            self.ctx["sync"]
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "Timeout"
        ):
            self._add(
                "SAN102", node,
                "inline 'yield Timeout(...)' bypasses the strategy cost "
                "model; use a named Timeout constant or strategy method",
            )
        self.generic_visit(node)

    # -- SAN103 (deprecated shims) ----------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in _DEPRECATED_SHIMS:
                self._add(
                    "SAN103", node,
                    f"'{alias.name}' is a deprecated shim; use the scope "
                    f"classes (GridGroup/MultiGridGroup) instead",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _DEPRECATED_SHIMS:
            self._add(
                "SAN103", node,
                f"'{node.attr}' is a deprecated shim; use the scope "
                f"classes (GridGroup/MultiGridGroup) instead",
            )
        self.generic_visit(node)

    # -- SAN107 (swallowed exceptions) ------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.ctx["src"] and _is_broad_handler(node) and _is_silent_body(node.body):
            self._add(
                "SAN107", node,
                "broad except with a pass-only body swallows engine "
                "errors; narrow the exception or record the failure",
            )
        self.generic_visit(node)


def _is_broad_handler(node: ast.ExceptHandler) -> bool:
    if node.type is None:
        return True
    if isinstance(node.type, ast.Name):
        return node.type.id in ("Exception", "BaseException")
    return False


def _is_silent_body(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True


def _context_for(path: str) -> Dict[str, bool]:
    """Which path-scoped rules apply to this file."""
    norm = path.replace("\\", "/")
    name = norm.rsplit("/", 1)[-1]
    return {
        # Under the package source tree (SAN105/SAN107 fire here only:
        # tests legitimately use randomness and pass-only handlers).
        "src": "src/repro/" in norm or norm.startswith("repro/"),
        # Inside the sync package (SAN102's scope/strategy code).
        "sync": "/sync/" in norm or norm.startswith("sync/"),
        # Inside the engine package itself (SAN108 exempt).
        "sim": "/sim/" in norm or norm.startswith("sim/"),
        # The sweep service's worker layer: the one sanctioned
        # ``ProcessPoolExecutor`` construction site (SAN109 exempt).
        "workers": norm.endswith("experiments/service/workers.py"),
        # An experiment driver or its summary (SAN104's scope).
        "driver": (
            "/experiments/" in norm
            and (name.startswith("exp_") or name == "summary.py")
        ),
    }


def lint_source(source: str, path: str) -> List[LintViolation]:
    """Lint one module's source text (``path`` scopes path-based rules)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                "SAN101", path, exc.lineno or 1, (exc.offset or 0) + 1,
                f"file does not parse: {exc.msg}", exc.text or "",
            )
        ]
    checker = _Checker(path, source.splitlines(), _context_for(path))
    checker.visit(tree)
    checker.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return checker.violations


def _iter_py_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Iterable[str]) -> List[LintViolation]:
    """Lint every ``*.py`` file under ``paths`` (files or directories)."""
    violations: List[LintViolation] = []
    for file in _iter_py_files(paths):
        rel = file.as_posix()
        violations.extend(lint_source(file.read_text(encoding="utf-8"), rel))
    return violations


# -- baseline -------------------------------------------------------------


def load_baseline(path: Path) -> Counter:
    """Fingerprint multiset from a baseline file (empty if absent)."""
    if not path.exists():
        return Counter()
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {data.get('version')!r} in {path}"
        )
    counts: Counter = Counter()
    for fingerprints in data.get("entries", {}).values():
        counts.update(fingerprints)
    return counts


def write_baseline(path: Path, violations: List[LintViolation]) -> None:
    entries: Dict[str, List[str]] = {}
    for v in sorted(violations, key=lambda v: (v.rule, v.path, v.line)):
        entries.setdefault(v.rule, []).append(v.fingerprint)
    payload = {"version": BASELINE_VERSION, "entries": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def filter_baselined(
    violations: List[LintViolation], baseline: Counter
) -> List[LintViolation]:
    """Drop violations covered by the baseline (multiset semantics: N
    baselined copies of a line absorb at most N occurrences)."""
    remaining = Counter(baseline)
    fresh = []
    for v in violations:
        if remaining[v.fingerprint] > 0:
            remaining[v.fingerprint] -= 1
        else:
            fresh.append(v)
    return fresh


# -- CLI ------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static sync-API linter for the repro codebase (rule catalog: "
            "docs/sanitize.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"], metavar="PATH",
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=Path(DEFAULT_BASELINE), metavar="FILE",
        help=f"baseline file of accepted violations (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report every violation, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current violations: rewrite the baseline and exit 0",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json emits one object per new violation)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, (summary, anchor) in RULES.items():
            print(f"{rule}  {summary}  [{anchor}]")
        return 0

    violations = lint_paths(args.paths)

    if args.write_baseline:
        write_baseline(args.baseline, violations)
        print(
            f"wrote {len(violations)} accepted violation(s) to {args.baseline}",
            file=sys.stderr,
        )
        return 0

    if args.no_baseline:
        fresh = violations
    else:
        try:
            baseline = load_baseline(args.baseline)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"bad baseline file: {exc}", file=sys.stderr)
            return 2
        fresh = filter_baselined(violations, baseline)

    if args.format == "json":
        print(json.dumps([v.to_dict() for v in fresh], indent=2))
    else:
        for v in fresh:
            print(v.render())
        if fresh:
            print(
                f"{len(fresh)} new violation(s) "
                f"({len(violations) - len(fresh)} baselined)",
                file=sys.stderr,
            )
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
