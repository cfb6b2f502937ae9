"""Integration tests mapping every code listing in the paper to its
implementation in this library.

The paper's figures 3, 6, 10-14, 17 and 19 are code listings rather than
data; each has a behavioural counterpart in the simulator.  These tests
execute that counterpart end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cudasim import CudaRuntime, LaunchConfig, NullKernel, SleepKernel
from repro.host.openmp import OmpTeam
from repro.sim.arch import DGX1_V100, V100


class TestFig3SampleCode:
    """Fig 3: the implicit-barrier micro-benchmark skeleton."""

    def test_fig3_protocol_recovers_kernel_total_latency(self):
        rt = CudaRuntime.single_gpu(V100, host_jitter_ns=0.0)
        cfg = LaunchConfig(1, 32)
        timers = {}

        def host():
            # null_kernel with 10 us of nanosleep, as in the listing.
            kernel = SleepKernel(units=10, unit_ns=1000.0)
            yield from rt.launch(kernel, cfg)  # warm-up (not in timers)
            yield from rt.device_synchronize()
            timers["t1"] = rt.host_clock.read()
            yield from rt.launch(kernel, cfg)
            yield from rt.device_synchronize()
            timers["t2"] = rt.host_clock.read()
            for _ in range(5):
                yield from rt.launch(kernel, cfg)
            yield from rt.device_synchronize()
            timers["t3"] = rt.host_clock.read()

        rt.run_host(host())
        total = ((timers["t3"] - timers["t2"]) - (timers["t2"] - timers["t1"])) / 4
        # 10 us sleep kernels hide the dispatch pipeline, so the estimator
        # returns exec + gap: 10 us + ~1.08 us.
        assert total == pytest.approx(10_000 + 1081, rel=0.02)


class TestFig6CpuBarrier:
    """Fig 6: omp parallel + cudaSetDevice + kernel + sync + omp barrier."""

    def test_fig6_pattern_runs_to_completion(self):
        n = 4
        rt = CudaRuntime.for_node(DGX1_V100, gpu_count=n)
        team = OmpTeam(rt, n_threads=n)
        done = []

        def worker(gid):  # gid = omp_get_thread_num(); cudaSetDevice(gid)
            yield from rt.launch(NullKernel(), LaunchConfig(1, 32), device=gid)
            yield from rt.device_synchronize(device=gid)
            yield from team.barrier(gid)
            done.append(gid)

        team.run(worker)
        assert sorted(done) == list(range(n))
        assert team.barriers_passed == 1


class TestFig10BandwidthProxy:
    """Fig 10: the while-loop load+add proxy kernel."""

    def test_proxy_measures_table3_bandwidth(self, spec):
        from repro.microbench import measure_shared_bandwidth

        r = measure_shared_bandwidth(spec, 32)
        assert r.bandwidth_bytes_per_cycle == pytest.approx(
            {"V100": 19.6, "P100": 13.8}[spec.name], rel=0.03
        )


class TestFig11WarpReduce:
    """Fig 11: warp-level reduction with synchronization per step."""

    def test_listing_semantics_and_timing(self, spec):
        from repro.reduction import warp_reduce_latency_cycles, warp_reduce_value

        vals = np.linspace(0.0, 1.0, 32)
        out = warp_reduce_value(vals, "tile")
        assert out.correct
        assert warp_reduce_latency_cycles(spec, "tile") > 0


class TestFig12BlockReduce:
    """Fig 12: stride loop + block.sync + warp-0 shuffle finish."""

    def test_listing_behaviour(self, spec):
        from repro.reduction import block_reduce_cycles, block_reduce_value

        vals = np.random.default_rng(0).uniform(size=5000)
        assert block_reduce_value(vals, 1024) == pytest.approx(vals.sum())
        cost = block_reduce_cycles(spec, 5000, 1024)
        assert cost.sync_cycles > 0  # the single block.sync() of the listing


class TestFig13Fig14DeviceReductions:
    """Figs 13/14: explicit (grid sync) vs implicit device reductions."""

    def test_both_listings_agree_on_the_sum(self, spec):
        from repro.reduction import reduce_grid_sync, reduce_implicit

        data = np.random.default_rng(13).uniform(size=2 * 1024 * 1024 // 8)
        explicit = reduce_grid_sync(spec, data)
        implicit = reduce_implicit(spec, data)
        assert explicit.correct and implicit.correct
        assert explicit.value == pytest.approx(implicit.value)

    def test_fig14_multigpu_variant(self, dgx1):
        from repro.reduction import reduce_cpu_barrier

        data = np.random.default_rng(14).uniform(size=8 * 1024 * 1024 // 8)
        r = reduce_cpu_barrier(dgx1, data, gpu_count=4)
        assert r.correct


class TestFig17TimerLadder:
    """Fig 17: per-thread timer / sync / timer under a 32-way branch."""

    def test_listing_produces_fig18_traces(self, v100, p100):
        from repro.core import warp_sync_blocking_trace

        assert warp_sync_blocking_trace(v100).blocks_all_threads
        assert not warp_sync_blocking_trace(p100).blocks_all_threads


class TestFig19WongKernel:
    """Fig 19: the dependent add chain between two clock() reads."""

    def test_listing_measures_fadd(self, spec):
        from repro.microbench import measure_instruction_latency_wong

        expected = {"V100": 4.0, "P100": 6.0}[spec.name]
        assert measure_instruction_latency_wong(spec, "fadd") == pytest.approx(
            expected, abs=0.1
        )
