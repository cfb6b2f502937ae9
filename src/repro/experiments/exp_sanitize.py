"""Experiment E-SAN: the Section VIII pitfalls under the sanitizer.

The paper can only *describe* its synchronization pitfalls ("a subset of
blocks calling ``grid.sync()`` hangs the device").  This experiment
re-runs those pitfall scenarios with :mod:`repro.sanitize` installed and
checks that the dynamic checker produces the precise diagnostics the
prose could not: which members never arrived, at which round, in which
scope; which protocol rule a misuse violated; which access pair raced.

Each probe runs in its own nested :class:`~repro.sanitize.checker.
SanitizerSession` (sessions restore the previously installed monitor, so
this driver behaves identically under a CLI-level ``--sanitize`` run).
Every row is a boolean: did the expected rule fire with the expected
attribution?
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.base import ExperimentReport
from repro.experiments.scenario import PAPER_SCENARIO, Scenario
from repro.sanitize.checker import Finding, SanitizerSession, render_findings
from repro.sim.engine import DeadlockError
from repro.sim.memory import SharedMemory
from repro.sync.groups import GridGroup, MultiGridGroup, WarpGroup

__all__ = ["run_pitfalls_sanitized"]


def _rules(findings: List[Finding]) -> List[str]:
    return [f.rule for f in findings]


def _probe_partial_grid(spec) -> List[Finding]:
    """Half the blocks of a 4-block grid call ``grid.sync()``."""
    with SanitizerSession("synccheck") as sess:
        group = GridGroup(spec, blocks_per_sm=1, threads_per_block=64, sm_count=4)
        try:
            group.simulate(participating_blocks=2)
        except DeadlockError:
            pass
    return sess.findings()


def _probe_partial_multigrid(scenario: Scenario) -> List[Finding]:
    """Two of four GPUs call ``multi_grid.sync()``."""
    with SanitizerSession("synccheck") as sess:
        node = scenario.build_node(gpu_count=4)
        group = MultiGridGroup(node, blocks_per_sm=1, threads_per_block=32)
        try:
            group.simulate(participating_gpus=(0, 1))
        except DeadlockError:
            pass
    return sess.findings()


def _probe_protocol_misuse(spec) -> List[Finding]:
    """Double-arrive and wait-before-arrive on a split-phase tile barrier.

    Member 0 arrives twice; member 1 only waits.  Anonymous arrival
    counting means the barrier *releases* — the run completes, nothing
    hangs — which is exactly why this misuse needs a checker.
    """
    with SanitizerSession("synccheck") as sess:
        group = WarpGroup(spec, size=2)
        engine = group.engine

        def double_arriver():
            yield from group.arrive(0, 0)
            yield from group.arrive(0, 0)
            yield from group.wait(0, 0)

        def wait_only():
            yield from group.wait(1, 0)

        engine.process(double_arriver(), name="lane0")
        engine.process(wait_only(), name="lane1")
        engine.run()
    return sess.findings()


def _probe_round_skew(spec) -> List[Finding]:
    """A member arrives at round 1 before completing its round-0 wait."""
    with SanitizerSession("synccheck") as sess:
        group = WarpGroup(spec, size=1)
        engine = group.engine

        def skewed():
            yield from group.arrive(0, 0)
            yield from group.arrive(0, 1)  # round 0 wait still outstanding
            yield from group.wait(0, 0)
            yield from group.wait(0, 1)

        engine.process(skewed(), name="lane0")
        engine.run()
    return sess.findings()


def _probe_race(spec) -> List[Finding]:
    """The Table V no-sync race, and its commit-ordered correction."""
    with SanitizerSession("racecheck") as sess:
        mem = SharedMemory(4)
        mem.store(0, 0, 1.0)
        mem.load(1, 0)  # unordered with the store: races
        mem.commit()
        mem.load(1, 0)  # ordered by the commit: clean
    return sess.findings()


def run_pitfalls_sanitized(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Sanitizer diagnostics on the paper's pitfall scenarios."""
    scenario = scenario or PAPER_SCENARIO
    report = ExperimentReport(
        "pitfalls_sanitized", "Sync pitfalls diagnosed by repro.sanitize"
    )
    for spec in scenario.gpu_specs():
        grid = _probe_partial_grid(spec)
        divergence = [f for f in grid if f.rule == "SYNC-DIVERGENCE"]
        names_members = bool(
            divergence
            and divergence[0].details.get("missing") == [2, 3]
            and divergence[0].details.get("round") == 0
            and "GridGroup" in divergence[0].details.get("scope", "")
        )
        report.add(
            f"{spec.name} partial grid: divergence names members/round/scope",
            1.0, 1.0 if names_members else 0.0, "bool",
            note="SYNC-DIVERGENCE",
        )
        report.add(
            f"{spec.name} partial grid: deadlock blame graph",
            1.0, 1.0 if "DEADLOCK-BLAME" in _rules(grid) else 0.0, "bool",
            note="DEADLOCK-BLAME",
        )

        mgrid = _probe_partial_multigrid(scenario)
        mgrid_blamed = any(
            f.rule == "DEADLOCK-BLAME" and "mgrid-release-0" in f.message
            for f in mgrid
        )
        report.add(
            f"{spec.name} partial multi-grid: blame names mgrid release",
            1.0, 1.0 if mgrid_blamed else 0.0, "bool",
            note="DEADLOCK-BLAME",
        )

        misuse = _rules(_probe_protocol_misuse(spec))
        report.add(
            f"{spec.name} double arrive detected",
            1.0, 1.0 if "SYNC-DOUBLE-ARRIVE" in misuse else 0.0, "bool",
            note="SYNC-DOUBLE-ARRIVE",
        )
        report.add(
            f"{spec.name} wait without arrive detected",
            1.0, 1.0 if "SYNC-WAIT-BEFORE-ARRIVE" in misuse else 0.0, "bool",
            note="SYNC-WAIT-BEFORE-ARRIVE",
        )

        skew = _rules(_probe_round_skew(spec))
        report.add(
            f"{spec.name} round skew detected",
            1.0, 1.0 if "SYNC-ROUND-SKEW" in skew else 0.0, "bool",
            note="SYNC-ROUND-SKEW",
        )

        races = _probe_race(spec)
        report.add(
            f"{spec.name} no-sync race: exactly one unordered pair",
            1.0,
            1.0 if _rules(races) == ["RACE-SHARED-SLOT"] else 0.0,
            "bool",
            note="RACE-SHARED-SLOT",
        )

        report.add_artifact(
            "\n".join(
                [f"sanitizer findings - {spec.name} partial grid sync:"]
                + [f"  {line}" for line in render_findings(grid)]
            )
        )
    report.notes.append(
        "every probe is the paper's prose pitfall re-run under the dynamic "
        "checker: hangs become divergence reports naming the absent "
        "members, silent misuse becomes protocol findings, and the Table V "
        "no-sync race is caught by happens-before analysis "
        "(docs/sanitize.md)"
    )
    return report
