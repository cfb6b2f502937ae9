"""Tests for the CUDA-like runtime facade."""

from __future__ import annotations

import pytest

from repro.cudasim.errors import CooperativeLaunchTooLarge, InvalidDevice
from repro.cudasim.kernel import LaunchConfig, NullKernel, WorkKernel
from repro.cudasim.runtime import CudaRuntime

CFG = LaunchConfig(1, 32)


class TestConstruction:
    def test_single_gpu(self, spec):
        rt = CudaRuntime.single_gpu(spec)
        assert rt.gpu_count == 1
        assert rt.device(0).spec is spec

    def test_for_node(self, dgx1):
        rt = CudaRuntime.for_node(dgx1, gpu_count=4)
        assert rt.gpu_count == 4

    def test_invalid_device_index(self, v100):
        rt = CudaRuntime.single_gpu(v100)
        with pytest.raises(InvalidDevice):
            rt.device(1)


class TestTraditionalLaunch:
    def test_launch_and_sync_roundtrip(self, spec):
        rt = CudaRuntime.single_gpu(spec, host_jitter_ns=0.0)

        def host():
            rec = yield from rt.launch(NullKernel(), CFG)
            yield from rt.device_synchronize()
            return rec, rt.engine.now

        rec, t_end = rt.run_host(host())
        calib = spec.launch_calib("traditional")
        assert rec.start_ns == pytest.approx(calib.api_ns + calib.dispatch_ns)
        assert t_end == pytest.approx(rec.end_ns + calib.sync_return_ns)

    def test_api_cost_charged_to_host_thread(self, v100):
        rt = CudaRuntime.single_gpu(v100)

        def host():
            t0 = rt.engine.now
            yield from rt.launch(NullKernel(), CFG)
            return rt.engine.now - t0

        assert rt.run_host(host()) == v100.launch_calib("traditional").api_ns

    def test_sync_without_pending_work_costs_return_only(self, v100):
        rt = CudaRuntime.single_gpu(v100)

        def host():
            t0 = rt.engine.now
            yield from rt.device_synchronize()
            return rt.engine.now - t0

        assert rt.run_host(host()) == pytest.approx(
            v100.launch_calib("traditional").sync_return_ns
        )

    def test_oversized_block_rejected(self, spec):
        rt = CudaRuntime.single_gpu(spec)

        def host():
            yield from rt.launch(NullKernel(), LaunchConfig(1, 2048))

        with pytest.raises(Exception):
            rt.run_host(host())


class TestCooperativeLaunch:
    def test_coresident_grid_accepted(self, spec):
        rt = CudaRuntime.single_gpu(spec)
        cfg = LaunchConfig(2 * spec.sm_count, 1024)

        def host():
            yield from rt.launch_cooperative(NullKernel("cooperative"), cfg)
            yield from rt.device_synchronize(launch_type="cooperative")

        rt.run_host(host())

    def test_oversized_grid_rejected(self, spec):
        rt = CudaRuntime.single_gpu(spec)
        cfg = LaunchConfig(3 * spec.sm_count, 1024)

        def host():
            yield from rt.launch_cooperative(NullKernel("cooperative"), cfg)

        with pytest.raises(CooperativeLaunchTooLarge):
            rt.run_host(host())

    def test_cooperative_api_cost_higher_than_traditional(self, spec):
        # Host-side occupancy validation (the Fig 15 floor mechanism).
        assert (
            spec.launch_calib("cooperative").api_ns
            > spec.launch_calib("traditional").api_ns
        )


class TestMultiDeviceLaunch:
    def test_kernels_start_together(self, dgx1):
        rt = CudaRuntime.for_node(dgx1, gpu_count=4)

        def host():
            recs = yield from rt.launch_cooperative_multi_device(
                NullKernel("multi_device"), CFG
            )
            yield from rt.synchronize_all()
            return recs

        recs = rt.run_host(host())
        assert len(recs) == 4
        assert len({r.start_ns for r in recs}) == 1

    def test_waits_for_all_prior_stream_work(self, dgx1):
        """Default-flag semantics: the multi-device kernel is an implicit
        barrier over every involved stream."""
        rt = CudaRuntime.for_node(dgx1, gpu_count=2)

        def host():
            # Pre-load device 1 with a long kernel.
            yield from rt.launch(WorkKernel(500_000.0), CFG, device=1)
            recs = yield from rt.launch_cooperative_multi_device(
                NullKernel("multi_device"), CFG
            )
            yield from rt.synchronize_all()
            return recs

        recs = rt.run_host(host())
        busy_end = rt.stream(1).records[0].end_ns
        assert all(r.start_ns >= busy_end for r in recs)

    def test_device_subset(self, dgx1):
        rt = CudaRuntime.for_node(dgx1, gpu_count=4)

        def host():
            recs = yield from rt.launch_cooperative_multi_device(
                NullKernel("multi_device"), CFG, devices=[1, 3]
            )
            yield from rt.synchronize_all()
            return recs

        assert len(rt.run_host(host())) == 2

    def test_empty_device_list_rejected(self, dgx1):
        rt = CudaRuntime.for_node(dgx1, gpu_count=2)

        def host():
            yield from rt.launch_cooperative_multi_device(
                NullKernel("multi_device"), CFG, devices=[]
            )

        with pytest.raises(InvalidDevice):
            rt.run_host(host())

    def test_repeated_device_rejected(self, dgx1):
        rt = CudaRuntime.for_node(dgx1, gpu_count=2)

        def host():
            yield from rt.launch_cooperative_multi_device(
                NullKernel("multi_device"), CFG, devices=[0, 0]
            )

        with pytest.raises(InvalidDevice, match="device 0 appears more than once"):
            rt.run_host(host())

    def test_oversized_grid_rejected_on_any_device(self, dgx1):
        rt = CudaRuntime.for_node(dgx1, gpu_count=2)
        cfg = LaunchConfig(3 * dgx1.gpu.sm_count, 1024)

        def host():
            yield from rt.launch_cooperative_multi_device(
                NullKernel("multi_device"), cfg
            )

        with pytest.raises(CooperativeLaunchTooLarge):
            rt.run_host(host())


class TestHostThreads:
    def test_spawn_host_runs_concurrently(self, v100):
        rt = CudaRuntime.single_gpu(v100)
        order = []

        def worker(name, delay):
            from repro.sim.engine import Timeout

            yield Timeout(delay)
            order.append(name)

        rt.spawn_host(worker("slow", 10.0), name="slow")
        rt.spawn_host(worker("fast", 1.0), name="fast")
        rt.engine.run()
        assert order == ["fast", "slow"]
