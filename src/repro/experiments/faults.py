"""Deterministic fault injection for the experiment execution layer.

Every failure mode the supervised runner must survive — a worker process
dying mid-point, a driver hanging past the sweep timeout, a point that
fails transiently for its first N attempts, a cache write that errors —
can be triggered *on purpose* through a :class:`FaultPlan`, so the
crash-isolation / timeout / retry / claim-takeover machinery in
:mod:`repro.experiments.service` is testable without races or luck.

A plan is a sequence of :class:`FaultRule` entries.  Each rule names the
fault ``kind`` plus a match predicate (experiment-id glob, scenario
substring, attempt window), and fires only while the point's attempt
number is ``<= attempts`` — so a ``kill`` rule with ``attempts=1``
crashes the first attempt and lets the retry succeed, deterministically.

Plans reach the runner through one channel: ``REPRO_FAULT_PLAN``
holding the plan's JSON form (:meth:`FaultPlan.to_json`).  It survives
into pool workers under both the ``fork`` and ``spawn`` start methods;
CI's chaos job injects faults through the real CLI with it, and tests
set it with ``monkeypatch.setenv``.

When it is unset, :func:`active_plan` returns ``None`` after one dict
lookup — the hooks cost nothing in normal operation.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "TransientPointError",
    "InjectedFaultError",
    "active_plan",
    "apply_driver_faults",
    "maybe_fail_cache_write",
]

# The injectable failure modes, in the order the runner meets them:
#   kill   -- os._exit() inside a pool worker (BrokenProcessPool upstream)
#   delay  -- sleep before the driver runs (trips the per-point timeout)
#   flaky  -- raise a transient error (retryable) while attempt <= N
#   error  -- raise a deterministic error (fails fast, never retried)
#   cache-write -- the cache store raises OSError (publish must degrade)
FAULT_KINDS = ("kill", "delay", "flaky", "error", "cache-write")


class TransientPointError(RuntimeError):
    """A point failure the retry policy should treat as transient.

    Drivers (and the ``flaky`` fault) raise this to request a retry with
    backoff instead of failing the point fast; any other exception from a
    driver is considered deterministic and is never retried.
    """


class InjectedFaultError(TransientPointError):
    """Transient error raised by a ``flaky`` fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One injectable fault: what to do, and exactly where/when to do it."""

    kind: str
    match: str = "*"  # fnmatch glob over the experiment id
    scenario: str = ""  # substring of Scenario.describe() ("" = any)
    attempts: int = 1  # fire while the point's attempt number is <= this
    delay: float = 0.0  # seconds, for kind="delay"
    exit_code: int = 1  # for kind="kill"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def applies(self, exp_id: str, scenario_desc: str, attempt: int) -> bool:
        return (
            attempt <= self.attempts
            and fnmatch.fnmatchcase(exp_id, self.match)
            and (not self.scenario or self.scenario in scenario_desc)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "match": self.match,
            "scenario": self.scenario,
            "attempts": self.attempts,
            "delay": self.delay,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        unknown = set(data) - {
            "kind", "match", "scenario", "attempts", "delay", "exit_code",
        }
        if unknown:
            raise ValueError(f"unknown fault rule field(s): {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("fault rule missing required field 'kind'")
        return cls(
            kind=data["kind"],
            match=data.get("match", "*"),
            scenario=data.get("scenario", ""),
            attempts=int(data.get("attempts", 1)),
            delay=float(data.get("delay", 0.0)),
            exit_code=int(data.get("exit_code", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault rules; the first matching rule fires."""

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def first_match(
        self, kinds: Sequence[str], exp_id: str, scenario_desc: str, attempt: int
    ) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.kind in kinds and rule.applies(exp_id, scenario_desc, attempt):
                return rule
        return None

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.rules])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("fault plan must be a JSON array of rule objects")
        return cls(tuple(FaultRule.from_dict(d) for d in data))


# -- active-plan resolution ----------------------------------------------

ENV_VAR = "REPRO_FAULT_PLAN"

# Env parses are memoized on the raw string so the common case (variable
# set once for a whole chaos run) parses exactly once per process.
_ENV_MEMO: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan in ``$REPRO_FAULT_PLAN``, or ``None`` when it is unset."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _ENV_MEMO
    if _ENV_MEMO[0] != raw:
        _ENV_MEMO = (raw, FaultPlan.from_json(raw))
    return _ENV_MEMO[1]


# -- runner hooks --------------------------------------------------------

# Set by the runner's pool worker: ``kill`` faults only ever _exit a
# disposable worker process.  In-process execution (jobs=1) downgrades a
# kill to a transient raise so a misconfigured plan cannot take down the
# CLI, a test process, or a notebook kernel.
IN_WORKER = False


def apply_driver_faults(exp_id: str, scenario_desc: str, attempt: int) -> None:
    """Fire any kill/delay/flaky/error rule matching this driver attempt.

    Called by ``execute_point`` immediately before the driver runs (after
    the cache lookup, so cache hits are never faulted).  No-op without an
    active plan.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.first_match(
        ("kill", "delay", "flaky", "error"), exp_id, scenario_desc, attempt
    )
    if rule is None:
        return
    if rule.kind == "kill":
        if IN_WORKER:
            # A real crash: no exception propagation, no cleanup, the
            # worker is simply gone -- exactly what an OOM kill/segfault
            # looks like to the parent's ProcessPoolExecutor.
            os._exit(rule.exit_code)
        raise InjectedFaultError(
            f"fault plan requested a worker kill for {exp_id} "
            f"[{scenario_desc}] attempt {attempt}, but the point ran "
            "in-process; raising transiently instead"
        )
    if rule.kind == "delay":
        time.sleep(rule.delay)
        return
    if rule.kind == "flaky":
        raise InjectedFaultError(
            f"injected flaky failure for {exp_id} [{scenario_desc}] "
            f"attempt {attempt}/{rule.attempts}"
        )
    raise RuntimeError(
        f"injected deterministic failure for {exp_id} [{scenario_desc}]"
    )


def maybe_fail_cache_write(exp_id: str, scenario_desc: str) -> None:
    """Raise OSError if a ``cache-write`` rule matches (store-path hook)."""
    plan = active_plan()
    if plan is None:
        return
    if plan.first_match(("cache-write",), exp_id, scenario_desc, 1) is not None:
        raise OSError(
            f"injected cache write failure for {exp_id} [{scenario_desc}]"
        )
