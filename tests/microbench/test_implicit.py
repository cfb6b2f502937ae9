"""Tests for the implicit-barrier micro-benchmarks (Table I pipeline)."""

from __future__ import annotations

import pytest

from repro.cudasim.runtime import CudaRuntime
from repro.microbench.harness import MeasurementConfig
from repro.microbench.implicit import (
    cpu_side_barrier_overhead,
    measure_kernel_total_latency,
    measure_launch_overhead,
)
from repro.sim.arch import DGX1_V100, V100

FAST = MeasurementConfig(warmup=1, samples=3)


def v100_rt():
    return CudaRuntime.single_gpu(V100, seed=11)


class TestFusionMethod:
    def test_traditional_overhead_matches_table1(self):
        r = measure_launch_overhead(v100_rt, "traditional", config=FAST)
        assert r.overhead_ns == pytest.approx(1081.0, rel=0.02)

    def test_cooperative_overhead_matches_table1(self):
        r = measure_launch_overhead(v100_rt, "cooperative", config=FAST)
        assert r.overhead_ns == pytest.approx(1063.0, rel=0.02)

    def test_multi_device_overhead_matches_table1(self):
        factory = lambda: CudaRuntime.for_node(DGX1_V100, gpu_count=1)
        r = measure_launch_overhead(
            factory, "multi_device", devices=[0], config=FAST
        )
        assert r.overhead_ns == pytest.approx(1258.0, rel=0.02)

    def test_multi_device_overhead_grows_with_gpus(self):
        def overhead(n):
            factory = lambda: CudaRuntime.for_node(DGX1_V100, gpu_count=n)
            return measure_launch_overhead(
                factory, "multi_device", devices=list(range(n)),
                units_scale=400, config=FAST,
            ).overhead_ns

        o1, o8 = overhead(1), overhead(8)
        assert o8 == pytest.approx(67_200.0, rel=0.03)  # Fig 9 anchor
        assert o8 > 40 * o1

    def test_equal_ij_rejected(self):
        with pytest.raises(ValueError):
            measure_launch_overhead(v100_rt, "traditional", i_launches=3, j_launches=3)

    @pytest.mark.parametrize(
        "i, j, name", [(5, 0, "j_launches"), (-1, 1, "i_launches"), (2.5, 1, "i_launches")]
    )
    def test_launch_counts_below_one_rejected(self, i, j, name):
        # A j burst of no launches would time a bare synchronize against
        # i launches; a fractional count has no burst at all.
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            measure_launch_overhead(v100_rt, "traditional", i_launches=i, j_launches=j)

    @pytest.mark.parametrize("launch_type", ["traditional", "cooperative"])
    def test_devices_rejected_for_single_device_launch(self, launch_type):
        # Single-device launches run on device 0 whatever the list says.
        for measure in (measure_launch_overhead, measure_kernel_total_latency):
            with pytest.raises(ValueError, match="multi_device launches only"):
                measure(v100_rt, launch_type, devices=[1])

    def test_unsaturated_pipeline_overestimates(self):
        """The paper's warning: short kernels inflate the measured overhead
        because the dispatch pipeline is not hidden."""
        saturated = measure_launch_overhead(
            v100_rt, "traditional", units_scale=10, config=FAST
        )
        unsaturated = measure_launch_overhead(
            v100_rt, "traditional", units_scale=1, unit_ns=100.0, config=FAST
        )
        assert unsaturated.overhead_ns > 1.5 * saturated.overhead_ns


class TestFig3Estimator:
    def test_traditional_total_latency(self):
        m = measure_kernel_total_latency(v100_rt, "traditional", config=FAST)
        assert m.mean == pytest.approx(8888.0, rel=0.02)

    def test_cooperative_total_latency(self):
        m = measure_kernel_total_latency(v100_rt, "cooperative", config=FAST)
        assert m.mean == pytest.approx(10_248.0, rel=0.02)

    def test_ordering_matches_table1(self):
        vals = {
            lt: measure_kernel_total_latency(v100_rt, lt, config=FAST).mean
            for lt in ("traditional", "cooperative")
        }
        factory = lambda: CudaRuntime.for_node(DGX1_V100, gpu_count=1)
        vals["multi_device"] = measure_kernel_total_latency(
            factory, "multi_device", devices=[0], config=FAST
        ).mean
        assert vals["traditional"] < vals["cooperative"] < vals["multi_device"]


class TestCpuSideBarrier:
    def test_single_gpu_near_null_kernel_latency(self):
        m = cpu_side_barrier_overhead(DGX1_V100, 1, config=FAST)
        # Paper: "relatively close to the kernel total latency of a null
        # kernel" — 9.3 us plotted vs 8.888 us in Table I.
        assert m.mean == pytest.approx(9_300.0, rel=0.05)

    def test_flat_in_gpu_count(self):
        m1 = cpu_side_barrier_overhead(DGX1_V100, 1, config=FAST).mean
        m8 = cpu_side_barrier_overhead(DGX1_V100, 8, config=FAST).mean
        assert m8 < 1.25 * m1  # nearly horizontal Fig 9 series
        assert m8 == pytest.approx(10_600.0, rel=0.05)
