"""E-ENG: the simulation engine's fast paths on the workloads they serve.

Each check pins a fast path every reproduction runs through: the SIMT
converged mode across barrier loops and its re-fuse after divergence,
and the end-to-end Fig 4 / Fig 5 regenerations, Fig 5 forced onto the
event engine (its default run takes the analytic closed forms).  Engine
throughput (events/ms) is measured by perfbench (``--trace 1`` reports
``engine.events_per_ms``).
"""

from __future__ import annotations

from repro.cudasim import instructions as ins
from repro.experiments.exp_sync import run_fig4, run_fig5
from repro.experiments.scenario import Scenario
from repro.sim.arch import V100
from repro.sim.exec_block import BlockExecutor

_SIMT_ROUNDS = 40


def _simt_barrier_loop():
    """Fig-4-shaped barrier-delimited phases on the SIMT fast path.

    8 warps x 40 rounds of uniform work + ``__syncthreads``: every round
    must execute converged (one Timeout / one rendezvous wait per warp),
    never falling back to per-lane processes.
    """

    def program(ctx):
        for _ in range(_SIMT_ROUNDS):
            yield ins.FAdd(count=4)
            yield ins.ChainStep(count=2)
            yield ins.BlockSync()

    return BlockExecutor(V100, nthreads=256).run(program)


def _simt_divergence_barrier_loop():
    """Fig-4-shaped divergence-after-barrier workload.

    Every 4th phase runs a uniform divergent ladder with a per-lane tail;
    the following ``__syncthreads`` is the reconvergence rendezvous.  The
    warp scheduler must re-fuse there instead of staying thread-precise
    for the rest of the kernel.
    """

    def program(ctx):
        for r in range(_SIMT_ROUNDS):
            yield ins.FAdd(count=4)
            if r % 4 == 0:
                yield ins.Diverge(arms=1)
                yield ins.Compute(2.0 + ctx.lane % 3)
            yield ins.BlockSync()

    return BlockExecutor(V100, nthreads=256).run(program)


def test_bench_engine_simt_barrier_loop():
    """The Fig-4 shape must never de-fuse — a regression back to
    per-lane fallback multiplies the event count by the warp width."""
    result = _simt_barrier_loop()
    assert result.fused_rounds > 0
    assert result.defuse_count == 0


def test_bench_engine_simt_divergence_refuse():
    """The fused-rounds counter must stay nonzero *after* the first
    divergent phase (the warps re-fused at the barrier join) and every
    divergent phase must produce a re-fuse — 8 warps x 10 phases.  A
    regression to a permanent fallback zeroes ``refuse_count``."""
    result = _simt_divergence_barrier_loop()
    assert result.fused_rounds > 0
    assert result.refuse_count == 8 * len(range(0, _SIMT_ROUNDS, 4))


def test_bench_engine_end_to_end_fig4():
    """Fig 4 regenerated end to end (engine-dominated)."""
    assert run_fig4().mean_rel_err < 0.05


def test_bench_engine_end_to_end_fig5():
    """Grid-sync heat-map regeneration on the engine: L2 atomic Resource
    contention."""
    assert run_fig5(Scenario(backend="engine")).mean_rel_err < 0.10
