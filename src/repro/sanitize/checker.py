"""Judgement over the sync-event stream: findings, checks, sessions.

The dynamic half of ``repro.sanitize`` — the simulator-side analogue of
``compute-sanitizer --tool synccheck/racecheck``.  A
:class:`SanitizerSession` installs a :class:`~repro.sanitize.events.
SyncMonitor` for the duration of a run, then this module turns the
recorded stream into :class:`Finding` records:

* **SYNC-DIVERGENCE** — partial-participation barrier divergence: a
  round collected some arrivals but never released; the finding names
  the scope, the round, and exactly which members never arrived (the
  Section VIII-B pitfall, diagnosed instead of described).
* **SYNC-DOUBLE-ARRIVE** — one member arrived twice in the same round.
  Arrival counting is anonymous, so a double arrive *releases the
  barrier early* while a sibling is still outside it — worse than a
  hang, and invisible without per-member accounting.
* **SYNC-WAIT-BEFORE-ARRIVE** — a member waited on a round it never
  arrived at (unpaired split-phase use; Stuart & Owens's lost-wakeup
  class).
* **SYNC-ROUND-SKEW** — a member arrived at round *r+k* while round *r*
  was still unwaited: barrier generations reused out of order.
* **RACE-SHARED-SLOT** — unordered conflicting accesses on shared
  memory (:mod:`repro.sanitize.hb`).
* **DEADLOCK-BLAME** — the engine quiesced with blocked processes; the
  finding reconstructs the blame graph (who waits on what) and maps
  release signals back to (scope, round, missing members).
* **SANITIZE-TRUNCATED** — the event cap was hit; analysis is partial.

Everything here is stdlib-only (the instrumented modules import
:mod:`repro.sanitize.events`, which must not drag the simulator in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sanitize import CHECK_MODES, SANITIZE_MODES
from repro.sanitize import events as _events
from repro.sanitize.events import ScopeInfo, SyncMonitor
from repro.sanitize.hb import find_races

__all__ = [
    "Finding",
    "RULE_ANCHORS",
    "check_sync",
    "check_races",
    "check_deadlock",
    "run_checks",
    "render_findings",
    "SanitizerSession",
    "session",
]

#: Docs anchor per rule id (``docs/sanitize.md`` rule catalog).
RULE_ANCHORS = {
    "SYNC-DIVERGENCE": "docs/sanitize.md#sync-divergence",
    "SYNC-DOUBLE-ARRIVE": "docs/sanitize.md#sync-double-arrive",
    "SYNC-WAIT-BEFORE-ARRIVE": "docs/sanitize.md#sync-wait-before-arrive",
    "SYNC-ROUND-SKEW": "docs/sanitize.md#sync-round-skew",
    "RACE-SHARED-SLOT": "docs/sanitize.md#race-shared-slot",
    "DEADLOCK-BLAME": "docs/sanitize.md#deadlock-blame",
    "SANITIZE-TRUNCATED": "docs/sanitize.md#sanitize-truncated",
}


@dataclass
class Finding:
    """One sanitizer diagnostic (JSON-able, stable field order)."""

    rule: str
    severity: str  # "error" | "warning"
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "anchor": RULE_ANCHORS.get(self.rule, "docs/sanitize.md"),
            "details": self.details,
        }


def _scope_label(info: Optional[ScopeInfo], sid: Optional[int]) -> str:
    if info is not None:
        return info.label()
    return f"scope#{sid}" if sid is not None else "unknown scope"


# -- synccheck ------------------------------------------------------------


def check_sync(monitor: SyncMonitor) -> List[Finding]:
    """Arrive/wait protocol violations + partial-participation divergence."""
    findings: List[Finding] = []
    # (scope, round) -> ordered arrival members; membership via the set.
    arrivals: Dict[Tuple[int, int], List[int]] = {}
    arrived: Set[Tuple[int, int, int]] = set()
    released: Set[Tuple[int, int]] = set()
    wait_returned: Set[Tuple[int, int, int]] = set()
    # (scope, member) -> rounds arrived, in stream order.
    member_rounds: Dict[Tuple[int, int], List[int]] = {}
    flagged: Set[Tuple[str, int, Optional[int], int]] = set()

    def flag(
        rule: str, scope: int, member: Optional[int], rnd: int, message: str,
        **details: Any,
    ) -> None:
        key = (rule, scope, member, rnd)
        if key in flagged:
            return
        flagged.add(key)
        info = monitor.scopes.get(scope)
        findings.append(
            Finding(
                rule, "error", message,
                details={
                    "scope": _scope_label(info, scope), "member": member,
                    "round": rnd, **details,
                },
            )
        )

    for event in monitor.events:
        kind = event.kind
        if kind == "arrive":
            sid, member, rnd = event.scope, event.member, event.round
            key = (sid, member, rnd)
            if key in arrived:
                info = monitor.scopes.get(sid)
                flag(
                    "SYNC-DOUBLE-ARRIVE", sid, member, rnd,
                    f"{_scope_label(info, sid)} round {rnd}: member {member} "
                    f"arrived twice — anonymous arrival counting will release "
                    f"the barrier with a participant still outside it",
                )
            else:
                arrived.add(key)
                arrivals.setdefault((sid, rnd), []).append(member)
            history = member_rounds.setdefault((sid, member), [])
            for prior in history:
                if prior < rnd and (sid, member, prior) not in wait_returned:
                    info = monitor.scopes.get(sid)
                    flag(
                        "SYNC-ROUND-SKEW", sid, member, rnd,
                        f"{_scope_label(info, sid)}: member {member} arrived at "
                        f"round {rnd} before completing its wait for round "
                        f"{prior} — barrier generations reused out of order",
                        skipped_round=prior,
                    )
                    break
            history.append(rnd)
        elif kind == "wait":
            sid, member, rnd = event.scope, event.member, event.round
            if (sid, member, rnd) not in arrived:
                info = monitor.scopes.get(sid)
                flag(
                    "SYNC-WAIT-BEFORE-ARRIVE", sid, member, rnd,
                    f"{_scope_label(info, sid)} round {rnd}: member {member} "
                    f"waited without arriving — it consumes the release "
                    f"without having been counted",
                )
        elif kind == "wait_return":
            wait_returned.add((event.scope, event.member, event.round))
        elif kind == "release":
            if event.scope is not None:
                released.add((event.scope, event.round))

    # Divergence: the first round of each scope that gathered arrivals but
    # never released.  Later rounds of the same scope are consequences.
    for sid in sorted(monitor.scopes):
        info = monitor.scopes[sid]
        scope_rounds = sorted(r for (s, r) in arrivals if s == sid)
        for rnd in scope_rounds:
            if (sid, rnd) in released:
                continue
            came = sorted(set(arrivals[(sid, rnd)]))
            missing = sorted(set(info.members) - set(came))
            findings.append(
                Finding(
                    "SYNC-DIVERGENCE", "error",
                    f"{info.label()} round {rnd} never released: "
                    f"{len(came)} of {len(info.members)} members arrived; "
                    f"members {missing} never arrived "
                    f"(partial-participation barrier divergence)",
                    details={
                        "scope": info.label(), "round": rnd,
                        "arrived": came, "missing": missing,
                        "expected": len(info.members),
                    },
                )
            )
            break
    return findings


# -- racecheck ------------------------------------------------------------


def check_races(monitor: SyncMonitor) -> List[Finding]:
    """Unordered conflicting shared-memory access pairs."""
    findings = []
    for race in find_races(monitor.events):
        findings.append(
            Finding(
                "RACE-SHARED-SLOT", "error", race.describe(),
                details=race.to_dict(),
            )
        )
    return findings


# -- deadlock blame -------------------------------------------------------


def check_deadlock(monitor: SyncMonitor) -> List[Finding]:
    """Whole-system deadlock with a blocked-waiter blame graph."""
    findings: List[Finding] = []
    # Reconstruct arrivals for missing-member attribution.
    arrivals: Dict[Tuple[int, int], Set[int]] = {}
    for event in monitor.events:
        if event.kind == "arrive":
            arrivals.setdefault((event.scope, event.round), set()).add(event.member)
    for occurrence, waiters in enumerate(monitor.deadlocks):
        groups: Dict[Tuple[str, str], List[str]] = {}
        edges: List[Dict[str, Any]] = []
        blamed: List[str] = []
        for proc, kind, target, target_obj in waiters:
            groups.setdefault((kind, target), []).append(proc)
            edge: Dict[str, Any] = {"process": proc, "kind": kind, "target": target}
            where = monitor.round_of_signal(id(target_obj))
            if where is not None:
                sid, rnd = where
                info = monitor.scopes.get(sid)
                edge["scope"] = _scope_label(info, sid)
                edge["round"] = rnd
            edges.append(edge)
        for (kind, target), procs in sorted(groups.items()):
            line = f"{len(procs)} process(es) blocked on {kind} {target!r}"
            where = next(
                (
                    (e["scope"], e["round"])
                    for e in edges
                    if e["kind"] == kind and e["target"] == target and "scope" in e
                ),
                None,
            )
            if where is not None:
                label, rnd = where
                sid = next(
                    (s for s, i in monitor.scopes.items() if i.label() == label),
                    None,
                )
                came = arrivals.get((sid, rnd), set())
                info = monitor.scopes.get(sid)
                if info is not None:
                    missing = sorted(set(info.members) - came)
                    line += (
                        f" — {label} round {rnd}: {len(came)}/"
                        f"{len(info.members)} arrived, members {missing} "
                        f"never arrived"
                    )
            blamed.append(line)
        findings.append(
            Finding(
                "DEADLOCK-BLAME", "error",
                "simulation deadlocked: " + "; ".join(blamed),
                details={"occurrence": occurrence, "waiters": edges},
            )
        )
    return findings


# -- orchestration --------------------------------------------------------


def run_checks(monitor: SyncMonitor, mode: str) -> List[Finding]:
    """All findings for ``mode`` (deadlock blame runs in every mode)."""
    if mode not in CHECK_MODES:
        raise ValueError(
            f"unknown sanitize mode {mode!r}; available: "
            f"{', '.join(SANITIZE_MODES)}"
        )
    findings: List[Finding] = []
    if mode in ("synccheck", "full"):
        findings.extend(check_sync(monitor))
    if mode in ("racecheck", "full"):
        findings.extend(check_races(monitor))
    findings.extend(check_deadlock(monitor))
    if monitor.dropped:
        findings.append(
            Finding(
                "SANITIZE-TRUNCATED", "warning",
                f"event stream truncated at {monitor.max_events} events "
                f"({monitor.dropped} dropped); analysis is partial",
                details={"dropped": monitor.dropped},
            )
        )
    return findings


def render_findings(findings: List[Finding]) -> List[str]:
    """Report lines for a findings list (the CLI's rendered rows)."""
    return [
        f"[{f.rule}] {f.severity}: {f.message} "
        f"({RULE_ANCHORS.get(f.rule, 'docs/sanitize.md')})"
        for f in findings
    ]


class SanitizerSession:
    """Scoped installation of the sync monitor + the mode's checks.

    Usage (what :func:`repro.experiments.service.execute_point` does when
    a scenario carries ``sanitize=...``)::

        with SanitizerSession("full") as sess:
            run_the_workload()
        findings = sess.findings()
        payload = sess.summary()        # JSON-able, rides on the report

    Sessions nest: entering saves the previously installed monitor and
    exiting restores it, so a sanitized driver (``pitfalls_sanitized``)
    can open inner sessions while the CLI-level one is active.  Mode
    ``"off"`` is a no-op context (no monitor, no findings) so callers
    need no conditional.
    """

    def __init__(self, mode: str = "full", max_events: Optional[int] = None):
        if mode not in SANITIZE_MODES:
            raise ValueError(
                f"unknown sanitize mode {mode!r}; available: "
                f"{', '.join(SANITIZE_MODES)}"
            )
        self.mode = mode
        self.monitor: Optional[SyncMonitor] = None
        if mode != "off":
            kwargs = {"capture_memory": mode in ("racecheck", "full")}
            if max_events is not None:
                kwargs["max_events"] = max_events
            self.monitor = SyncMonitor(**kwargs)
        self._previous: Optional[SyncMonitor] = None

    def __enter__(self) -> "SanitizerSession":
        self._previous = _events.MONITOR
        if self.monitor is not None:
            _events.install(self.monitor)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.monitor is not None:
            if self._previous is None:
                _events.uninstall()
            else:
                _events.install(self._previous)
        self._previous = None

    def findings(self) -> List[Finding]:
        if self.monitor is None:
            return []
        return run_checks(self.monitor, self.mode)

    def summary(self) -> Dict[str, Any]:
        """The JSON payload attached to experiment reports (``sanitizer``)."""
        if self.monitor is None:
            return {"mode": "off", "events": 0, "findings": []}
        return {
            "mode": self.mode,
            "events": len(self.monitor.events),
            "dropped": self.monitor.dropped,
            "scopes": len(self.monitor.scopes),
            "findings": [f.to_dict() for f in self.findings()],
        }


def session(mode: str = "full", max_events: Optional[int] = None) -> SanitizerSession:
    """Convenience constructor (``with sanitize.session("full") as s:``)."""
    return SanitizerSession(mode, max_events=max_events)
