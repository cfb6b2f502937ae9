"""Ablation benchmarks: remove one modelled mechanism at a time and show
the corresponding paper artifact degrades.

These justify three structural choices of the calibrated model:

* the L2 atomic *contention* term (quadratic blocks/SM) in grid sync,
* the NVLink *two-hop penalty* behind the Fig 8/9 plateaus,
* the *dispatch-stall* term that makes short kernels expensive (Table I).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.paper_data import FIG5_GRID_SYNC_US, FIG8_MULTIGRID_V100_US
from repro.sim.arch import DGX1_V100, V100
from repro.sim.node import Node, cross_gpu_latency_ns
from repro.sync import GridGroup


def _fig5_mean_err(spec) -> float:
    errs = [
        abs(GridGroup(spec, b, t).simulate().latency_per_sync_us - paper) / paper
        for (b, t), paper in FIG5_GRID_SYNC_US["V100"].items()
    ]
    return float(np.mean(errs))


def test_bench_ablation_atomic_contention(benchmark):
    """Without the contention term, the 32-blocks/SM row collapses."""

    def run():
        full_err = _fig5_mean_err(V100)
        flat = dataclasses.replace(
            V100, grid_sync=dataclasses.replace(V100.grid_sync, per_blockpersm2_ns=0.0)
        )
        return full_err, _fig5_mean_err(flat)

    full_err, ablated_err = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["full_model_err"] = round(full_err, 4)
    benchmark.extra_info["ablated_err"] = round(ablated_err, 4)
    assert full_err < 0.08
    assert ablated_err > 1.5 * full_err


def test_bench_ablation_two_hop_penalty(benchmark):
    """Without the 2-hop penalty, the 5->6 GPU jump disappears and the
    Fig 8 six-GPU panel goes badly wrong."""

    def run():
        node = Node(DGX1_V100)
        flat_spec = dataclasses.replace(
            DGX1_V100,
            cross_gpu=dataclasses.replace(
                DGX1_V100.cross_gpu, hop2_penalty_ns=0.0, per_2hop_gpu_ns=0.0
            ),
        )
        paper = FIG8_MULTIGRID_V100_US[6][(1, 32)]
        local = 1.36e3  # local phase at (1, 32), ns
        full = (local + cross_gpu_latency_ns(DGX1_V100, node.interconnect, range(6), 1)) / 1e3
        flat = (local + cross_gpu_latency_ns(flat_spec, node.interconnect, range(6), 1)) / 1e3
        return paper, full, flat

    paper, full, flat = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["paper_us"] = paper
    benchmark.extra_info["full_model_us"] = round(full, 2)
    benchmark.extra_info["ablated_us"] = round(flat, 2)
    assert abs(full - paper) / paper < 0.10
    assert abs(flat - paper) / paper > 0.50  # ablation destroys the plateau


def test_bench_ablation_dispatch_stall(benchmark):
    """Without the exposed-dispatch term, back-to-back null kernels would
    cost only the launch gap — 8x below Table I's measured 8888 ns."""
    from repro.cudasim.kernel import LaunchConfig, WorkKernel
    from repro.cudasim.stream import Stream
    from repro.sim.device import Device
    from repro.sim.engine import Engine

    def run():
        calib = V100.launch_calib("traditional")
        eng = Engine()
        s = Stream(eng, Device(V100))
        cfg = LaunchConfig(1, 32)
        eps = calib.exec_null_ns
        r1 = s.enqueue(WorkKernel(eps), cfg, calib, 0.0)
        r2 = s.enqueue(WorkKernel(eps), cfg, calib, 0.0)
        with_stall = r2.end_ns - r1.end_ns
        without_stall = calib.gap_ns + eps
        return with_stall, without_stall

    with_stall, without_stall = benchmark.pedantic(run, rounds=5, iterations=1)
    benchmark.extra_info["with_stall_ns"] = with_stall
    benchmark.extra_info["without_stall_ns"] = without_stall
    assert with_stall == pytest.approx(8888.0, rel=0.01)
    assert without_stall < with_stall / 5
