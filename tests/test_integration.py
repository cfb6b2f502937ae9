"""End-to-end integration scenarios across the whole stack.

Each test is a miniature application: an advisor recommendation checked
against the simulated barrier it recommends, or two timing methods
cross-checked where their domains overlap — the way a real user of the
library composes the pieces.
"""

from __future__ import annotations

import pytest

from repro.sim.arch import DGX1_V100, V100


class TestAdvisorDrivenWorkflow:
    """Use the advisor to pick a mechanism, then execute its suggestion."""

    def test_device_advice_is_executable(self):
        from repro.core import KernelEnv, advise_device, this_grid

        adv = advise_device(V100, blocks_per_sm=2, threads_per_block=256,
                            barriers_per_launch=50)
        assert "grid.sync" in adv.recommendation
        env = KernelEnv.cooperative(V100, 2, 256)
        sim = this_grid(env).simulate(n_syncs=3)
        # The advisor's per-barrier estimate matches the simulated barrier.
        assert sim.latency_per_sync_ns * 50 == pytest.approx(
            adv.estimated_cost_ns, rel=0.10
        )

    def test_multi_gpu_advice_matches_simulation(self):
        from repro.core import advise_multi_gpu
        from repro.sim.node import Node
        from repro.sync import MultiGridGroup

        adv = advise_multi_gpu(DGX1_V100, gpu_ids=range(6), blocks_per_sm=1,
                               threads_per_block=256)
        sim = MultiGridGroup(Node(DGX1_V100), 1, 256, gpu_ids=range(6)).simulate()
        assert adv.estimated_cost_ns == pytest.approx(sim.latency_per_sync_ns, rel=0.02)


class TestMethodologyConsistency:
    """The three timing methods agree where their domains overlap."""

    def test_wong_and_inter_sm_agree_on_chain(self, spec):
        from repro.microbench import (
            measure_instruction_latency_inter_sm,
            measure_instruction_latency_wong,
        )

        wong = measure_instruction_latency_wong(spec, "chain")
        inter = measure_instruction_latency_inter_sm(spec, "chain", r1=4096, r2=512)
        assert inter.latency_cycles(spec.freq_mhz) == pytest.approx(wong, rel=0.10)

    def test_cost_model_and_des_agree_on_grid_sync(self, spec):
        from repro.sim.device import grid_sync_latency_ns
        from repro.sync import GridGroup

        for b, t in ((1, 64), (4, 128)):
            group = GridGroup(spec, b, t)
            assert group.simulate().latency_per_sync_ns == pytest.approx(
                group.latency_model(), rel=0.02
            )
            assert group.latency_model() == grid_sync_latency_ns(spec, b, t)

    def test_reduction_autotuner_consistent_with_measured_crossover(self, v100):
        """The Eq 5 switching point really is where measured times cross."""
        from repro.core.perfmodel import WorkerConfig, completion_time_cycles, switching_points
        from repro.microbench import measure_shared_bandwidth

        b = measure_shared_bandwidth(v100, 1)
        m = measure_shared_bandwidth(v100, 32)
        basic = WorkerConfig("t", b.bandwidth_bytes_per_cycle, b.chain_latency_cycles)
        more = WorkerConfig("w", m.bandwidth_bytes_per_cycle, m.chain_latency_cycles)
        pts = switching_points(basic, more, 110.0)
        n = pts.n_large
        below = completion_time_cycles(basic, n * 0.8) < completion_time_cycles(
            more, n * 0.8, 110.0
        )
        above = completion_time_cycles(basic, n * 1.3) > completion_time_cycles(
            more, n * 1.3, 110.0
        )
        assert below and above
