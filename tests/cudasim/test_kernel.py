"""Tests for kernel abstractions and launch configurations."""

from __future__ import annotations

import math

import pytest

from repro.cudasim.errors import InvalidConfiguration
from repro.cudasim.kernel import Kernel, LaunchConfig, NullKernel, SleepKernel, WorkKernel
from repro.sim.device import Device
from repro.sim.exec_thread import UnsupportedInstruction


class TestLaunchConfig:
    def test_valid_config(self):
        cfg = LaunchConfig(grid_blocks=160, threads_per_block=256)
        assert cfg.total_threads == 160 * 256
        assert cfg.warps_per_block == 8

    def test_partial_warp_rounds_up(self):
        assert LaunchConfig(1, 33).warps_per_block == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfiguration):
            LaunchConfig(0, 32)

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidConfiguration):
            LaunchConfig(1, 0)

    def test_negative_shared_rejected(self):
        with pytest.raises(InvalidConfiguration):
            LaunchConfig(1, 32, shared_mem_per_block=-1)

    def test_validate_against_spec(self, spec):
        LaunchConfig(1, spec.max_threads_per_block).validate(spec)
        with pytest.raises(InvalidConfiguration):
            LaunchConfig(1, spec.max_threads_per_block + 1).validate(spec)

    def test_validate_shared_memory(self, spec):
        with pytest.raises(InvalidConfiguration):
            LaunchConfig(1, 32, shared_mem_per_block=10**9).validate(spec)


class TestKernels:
    def test_null_kernel_duration_is_epsilon(self, spec):
        dev = Device(spec)
        k = NullKernel("traditional")
        assert k.duration_ns(dev, LaunchConfig(1, 32)) == spec.launch_calib(
            "traditional"
        ).exec_null_ns

    def test_sleep_kernel_on_volta(self, v100):
        dev = Device(v100)
        k = SleepKernel(units=10, unit_ns=1000.0)
        eps = v100.launch_calib("traditional").exec_null_ns
        assert k.duration_ns(dev, LaunchConfig(1, 32)) == eps + 10_000.0

    def test_sleep_kernel_rejected_on_pascal(self, p100):
        dev = Device(p100)
        k = SleepKernel(units=1)
        with pytest.raises(UnsupportedInstruction, match="Volta"):
            k.duration_ns(dev, LaunchConfig(1, 32))

    def test_sleep_kernel_negative_units(self):
        with pytest.raises(InvalidConfiguration):
            SleepKernel(units=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("units", math.inf), ("unit_ns", math.nan), ("unit_ns", math.inf)],
    )
    def test_sleep_kernel_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidConfiguration, match=f"SleepKernel {field}"):
            SleepKernel(**{field: value})

    def test_work_kernel_fixed_duration(self, v100):
        dev = Device(v100)
        assert WorkKernel(1234.5).duration_ns(dev, LaunchConfig(1, 32)) == 1234.5

    def test_work_kernel_negative_duration_rejected(self):
        with pytest.raises(InvalidConfiguration):
            WorkKernel(-1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_work_kernel_non_finite_duration_rejected(self, duration):
        with pytest.raises(InvalidConfiguration, match="WorkKernel duration_ns"):
            WorkKernel(duration)

    def test_body_runs_on_complete(self, v100):
        dev = Device(v100)
        hits = []
        k = WorkKernel(1.0, body=lambda d, c: hits.append((d.index, c.grid_blocks)))
        k.on_complete(dev, LaunchConfig(7, 32))
        assert hits == [(0, 7)]

    def test_base_kernel_without_duration_model_raises(self, v100):
        with pytest.raises(NotImplementedError):
            Kernel("abstract").duration_ns(Device(v100), LaunchConfig(1, 32))

    def test_duration_fn_wired(self, v100):
        k = Kernel("f", duration_fn=lambda d, c: 10.0 * c.grid_blocks)
        assert k.duration_ns(Device(v100), LaunchConfig(4, 32)) == 40.0

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_duration_fn_non_finite_rejected(self, v100, duration):
        k = Kernel("f", duration_fn=lambda d, c: duration)
        with pytest.raises(InvalidConfiguration, match="'f' duration"):
            k.duration_ns(Device(v100), LaunchConfig(1, 32))
