"""Tests for multi-GPU reductions (Fig 16)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reduction.device import make_input
from repro.reduction.multigpu import (
    reduce_cpu_barrier,
    reduce_multigrid,
    throughput_vs_gpu_count,
)
from repro.util.units import GB, MB


class TestCorrectness:
    def test_multigrid_correct_on_real_data(self, dgx1):
        data = np.random.default_rng(1).uniform(size=8 * MB // 8)
        r = reduce_multigrid(dgx1, data, gpu_count=4)
        assert r.correct
        assert r.value == pytest.approx(float(data.sum()))

    def test_cpu_barrier_correct_on_real_data(self, dgx1):
        data = np.random.default_rng(2).uniform(size=8 * MB // 8)
        r = reduce_cpu_barrier(dgx1, data, gpu_count=4)
        assert r.correct

    def test_single_gpu_degenerates_cleanly(self, dgx1):
        data = np.random.default_rng(3).uniform(size=4 * MB // 8)
        assert reduce_multigrid(dgx1, data, gpu_count=1).correct
        assert reduce_cpu_barrier(dgx1, data, gpu_count=1).correct

    def test_sizes_below_one_byte_rejected(self, dgx1):
        with pytest.raises(ValueError, match="size_bytes"):
            throughput_vs_gpu_count(dgx1, size_bytes=0)


class TestThroughputScaling:
    @pytest.fixture(scope="class")
    def fig16(self, ):
        from repro.sim.arch import DGX1_V100

        return throughput_vs_gpu_count(DGX1_V100, size_bytes=8 * GB)

    def test_near_linear_scaling(self, fig16):
        for series in fig16.values():
            assert series[8] > 6.5 * series[1]

    def test_single_gpu_near_table6_bandwidth(self, fig16, v100):
        assert fig16["cpu_barrier"][1] == pytest.approx(
            v100.hbm.effective_gbps("implicit"), rel=0.05
        )

    def test_cpu_barrier_slightly_ahead(self, fig16):
        """Paper: 'an implicit barrier is always slightly better than the
        multi-grid synchronization method' — though hard to notice."""
        for n in fig16["mgrid"]:
            assert fig16["cpu_barrier"][n] >= fig16["mgrid"][n] * 0.995
            assert fig16["mgrid"][n] >= fig16["cpu_barrier"][n] * 0.90

    def test_throughput_monotone_in_gpus(self, fig16):
        for series in fig16.values():
            vals = [series[n] for n in sorted(series)]
            assert vals == sorted(vals)

    def test_eight_gpu_throughput_in_paper_range(self, fig16):
        # Fig 16 tops out between ~6 and ~7.5 TB/s.
        assert 5500 < fig16["mgrid"][8] < 7500
        assert 5500 < fig16["cpu_barrier"][8] < 7500


class TestPcieNode:
    def test_two_p100_scaling(self, p100_node):
        data = make_input(2 * GB)
        one = reduce_multigrid(p100_node, data, gpu_count=1)
        two = reduce_multigrid(p100_node, data, gpu_count=2)
        assert two.throughput_gbps > 1.6 * one.throughput_gbps
