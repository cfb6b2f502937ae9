"""End-to-end integration scenarios across the whole stack.

Each test is a miniature application: host threads choreographing kernels,
events, copies and barriers on the simulated machines — the way a real
user of the library composes the pieces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cudasim import (
    CudaRuntime,
    EventApi,
    LaunchConfig,
    MemcpyApi,
    NullKernel,
    WorkKernel,
)
from repro.host.openmp import OmpTeam
from repro.sim.arch import DGX1_V100, V100


class TestEventTimedReduction:
    """Time a reduction with CUDA events instead of the host clock."""

    def test_event_timing_matches_host_timing(self):
        from repro.reduction.device import _partials, make_input

        rt = CudaRuntime.single_gpu(V100, host_jitter_ns=0.0)
        ev = EventApi(rt)
        data = make_input(8 * 1024 * 1024, seed=9)
        n_blocks = 160
        dev = rt.device(0)
        eps = V100.launch_calib("traditional").exec_null_ns
        k1 = WorkKernel(eps + dev.hbm.transfer_ns(data.nbytes), name="sum")
        k2 = WorkKernel(eps + 1000.0, name="final")
        cfg = LaunchConfig(n_blocks, 256)

        def host():
            yield from rt.launch(NullKernel(), LaunchConfig(1, 32))
            yield from rt.device_synchronize()
            e0, e1 = ev.create(), ev.create()
            yield from ev.record(e0)
            yield from rt.launch(k1, cfg)
            yield from rt.launch(k2, LaunchConfig(1, 1024))
            yield from ev.record(e1)
            yield from rt.device_synchronize()
            return ev.elapsed_ms(e0, e1)

        elapsed_ms = rt.run_host(host())
        # Device-side window excludes api/sync costs but includes both
        # kernels and the inter-kernel machinery: ~bandwidth time + ~10 us.
        bw_ms = dev.hbm.transfer_ns(data.nbytes) / 1e6
        assert bw_ms < elapsed_ms < bw_ms + 0.05


class TestMultiGpuGatherWithCopies:
    """Fig 14's gather loop, driven through the real MemcpyApi."""

    def test_four_gpu_tree_gather(self):
        n = 4
        rt = CudaRuntime.for_node(DGX1_V100, gpu_count=n, host_jitter_ns=0.0)
        rt.node.enable_all_peer_access()
        mc = MemcpyApi(rt)
        team = OmpTeam(rt, n_threads=n)

        rng = np.random.default_rng(4)
        shards = [rng.uniform(size=64) for _ in range(n)]
        partial_bufs = [rt.device(i).alloc((1,), name=f"p{i}") for i in range(n)]
        scratch = [rt.device(i).alloc((1,), name=f"s{i}") for i in range(n)]

        def worker(tid):
            # Local sum lands in partial_bufs[tid] at kernel completion.
            def body(device, config, tid=tid):
                partial_bufs[tid].data[0] = shards[tid].sum()

            k = WorkKernel(5000.0, name=f"sum{tid}", body=body)
            yield from rt.launch(k, LaunchConfig(2, 128), device=tid)
            yield from rt.device_synchronize(device=tid)
            yield from team.barrier(tid)

            # Gather step 1: 2,3 -> 0,1 ; step 2: 1 -> 0.
            active = n
            while active > 1:
                half = active // 2
                if half <= tid < active:
                    yield from mc.peer(scratch[tid - half], partial_bufs[tid])
                yield from rt.device_synchronize(device=tid)
                yield from team.barrier(tid)
                if tid < half:
                    partial_bufs[tid].data[0] += scratch[tid].data[0]
                yield from team.barrier(tid)
                active = half

        team.run(worker)
        expected = sum(s.sum() for s in shards)
        assert partial_bufs[0].data[0] == pytest.approx(expected)


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
