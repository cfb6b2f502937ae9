"""Experiment E-DIV: divergence-heavy barrier-delimited phases.

The paper's single-device workloads (Figs 3-5, Table V) are tight loops
of uniform work punctuated by ``__syncthreads`` — exactly the shape where
real SIMT hardware re-fuses lanes after every reconvergence point.  This
experiment runs that shape *with* divergent ladders injected into some
phases, through the thread-precise block executor, and reports per-phase
cost plus the fast path's mode counters.  It serves two purposes:

* **Scenario diversity** — a registered, sweepable divergence workload
  (knobs: ``extra.phases``, ``extra.arms``, ``extra.threads_per_block``,
  ``extra.divergent_every``) alongside the paper's pure-sync scans, and
* **A regression tripwire** — the rows assert that the SIMT fast path
  re-converges after every divergent phase and stays bit-identical to
  forced thread-precise execution; a silent fall-back to permanent
  per-lane simulation flips those booleans and fails the report.
"""

from __future__ import annotations

from typing import Optional

from repro.cudasim import instructions as ins
from repro.experiments.base import ExperimentReport
from repro.experiments.scenario import PAPER_SCENARIO, Scenario
from repro.sim.exec_block import BlockExecutor
from repro.viz.tables import render_table

__all__ = ["run_divergence"]

# Uniform work per phase (cycles) and the per-lane spread of the
# divergent tail — enough to stagger lanes without dominating the phase.
_UNIFORM_CYCLES = 40.0
_LANE_SPREAD = 5


def _phase_program(phases: int, divergent_every: int, arms: int):
    def program(ctx):
        for r in range(phases):
            yield ins.Compute(_UNIFORM_CYCLES)
            if divergent_every and r % divergent_every == 0:
                yield ins.Diverge(arms=arms)
                yield ins.Compute(2.0 + ctx.lane % _LANE_SPREAD)
            yield ins.BlockSync()
            t = yield ins.ReadClock()
            ctx.record(f"phase{r}", t)
        return ctx.tid

    return program


def run_divergence(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Divergence-then-barrier phases: cost and re-convergence audit."""
    scenario = scenario or PAPER_SCENARIO
    phases = scenario.extra_int("phases", 8)
    arms = scenario.extra_int("arms", 1)
    threads = scenario.extra_int("threads_per_block", 128)
    divergent_every = scenario.extra_int("divergent_every", 2)
    for name, value, low in (
        ("phases", phases, 1), ("divergent_every", divergent_every, 0), ("arms", arms, 1),
    ):
        if value < low:
            raise ValueError(f"extra.{name} must be >= {low}, got {value}")
    report = ExperimentReport(
        "divergence", "Divergence-heavy barrier-delimited phases"
    )
    program = _phase_program(phases, divergent_every, arms)
    n_divergent = (
        len(range(0, phases, divergent_every)) if divergent_every else 0
    )
    for spec in scenario.gpu_specs():
        fast_ex = BlockExecutor(spec, nthreads=threads, simt_fast_path=True)
        fast = fast_ex.run(program)
        slow = BlockExecutor(spec, nthreads=threads, simt_fast_path=False).run(
            program
        )
        identical = (
            fast.duration_ns == slow.duration_ns
            and fast.end_ns == slow.end_ns
            and fast.records == slow.records
            and fast.returns == slow.returns
        )
        refused_every_phase = (
            fast.refuse_count == fast_ex.warp_count * n_divergent
        )
        report.add(
            f"{spec.name} total ({phases} phases)",
            None,
            fast.duration_cycles,
            "cyc",
            note=f"{n_divergent} divergent, {arms}-arm ladder",
        )
        report.add(
            f"{spec.name} re-converged after every divergent phase",
            1.0,
            1.0 if refused_every_phase else 0.0,
            "bool",
            note=f"refuse_count={fast.refuse_count}",
        )
        report.add(
            f"{spec.name} fast path bit-identical to thread-precise",
            1.0,
            1.0 if identical else 0.0,
            "bool",
        )
        # Per-phase boundary times (thread 0's clock at each barrier exit).
        bounds = [fast.records[0][f"phase{r}"] for r in range(phases)]
        deltas = [bounds[0]] + [b - a for a, b in zip(bounds, bounds[1:])]
        report.add_artifact(
            render_table(
                ["phase", "divergent", "latency (cyc)"],
                [
                    [
                        r,
                        int(bool(divergent_every) and r % divergent_every == 0),
                        deltas[r],
                    ]
                    for r in range(phases)
                ],
                title=(
                    f"Phase cost - {spec.name} ({threads} thr, "
                    f"fused_rounds={fast.fused_rounds})"
                ),
                precision=1,
            )
        )
    report.notes.append(
        "divergent phases pay the serialized ladder plus the per-lane tail; "
        "the barrier is the reconvergence rendezvous, so sync cost stays a "
        "per-phase quantity (Stuart & Owens) rather than a per-kernel one"
    )
    return report
