"""Ablations: remove one modelled mechanism at a time and show the
corresponding paper artifact degrades.

These justify three structural choices of the calibrated model:

* the L2 atomic *contention* term (quadratic blocks/SM) in grid sync,
* the NVLink *two-hop penalty* behind the Fig 8/9 plateaus,
* the *dispatch-stall* term that makes short kernels expensive (Table I).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cudasim.kernel import LaunchConfig, WorkKernel
from repro.cudasim.stream import Stream
from repro.experiments.paper_data import FIG5_GRID_SYNC_US, FIG8_MULTIGRID_V100_US
from repro.sim.arch import DGX1_V100, V100
from repro.sim.device import Device
from repro.sim.engine import Engine
from repro.sim.node import Node, cross_gpu_latency_ns
from repro.sync import GridGroup


def _fig5_mean_err(spec) -> float:
    errs = [
        abs(GridGroup(spec, b, t).simulate().latency_per_sync_us - paper) / paper
        for (b, t), paper in FIG5_GRID_SYNC_US["V100"].items()
    ]
    return float(np.mean(errs))


def test_bench_ablation_atomic_contention():
    """Without the contention term, the 32-blocks/SM row collapses."""
    full_err = _fig5_mean_err(V100)
    flat = dataclasses.replace(
        V100, grid_sync=dataclasses.replace(V100.grid_sync, per_blockpersm2_ns=0.0)
    )
    ablated_err = _fig5_mean_err(flat)
    assert full_err < 0.08
    assert ablated_err > 1.5 * full_err


def test_bench_ablation_two_hop_penalty():
    """Without the 2-hop penalty, the 5->6 GPU jump disappears and the
    Fig 8 six-GPU panel goes badly wrong."""
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
    assert abs(full - paper) / paper < 0.10
    assert abs(flat - paper) / paper > 0.50  # ablation destroys the plateau


def test_bench_ablation_dispatch_stall():
    """Without the exposed-dispatch term, back-to-back null kernels would
    cost only the launch gap — 8x below Table I's measured 8888 ns."""
    calib = V100.launch_calib("traditional")
    s = Stream(Engine(), Device(V100))
    cfg = LaunchConfig(1, 32)
    eps = calib.exec_null_ns
    r1 = s.enqueue(WorkKernel(eps), cfg, calib, 0.0)
    r2 = s.enqueue(WorkKernel(eps), cfg, calib, 0.0)
    with_stall = r2.end_ns - r1.end_ns
    without_stall = calib.gap_ns + eps
    assert with_stall == pytest.approx(8888.0, rel=0.01)
    assert without_stall < with_stall / 5
