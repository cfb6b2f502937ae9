"""Tests for the multi-GPU node model and multi-grid barrier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.paper_data import FIG7_MULTIGRID_P100_US, FIG8_MULTIGRID_V100_US
from repro.sim.engine import DeadlockError
from repro.sim.node import Node, cross_gpu_latency_ns, multigrid_local_latency_ns
from repro.sync import MultiGridGroup


def _mgrid_sync(node, b, t, **kw):
    """Run one multi-grid simulation through the repro.sync scope."""
    sim_kw = {k: kw.pop(k) for k in ("n_syncs", "participating_gpus") if k in kw}
    return MultiGridGroup(node, b, t, **kw).simulate(**sim_kw)


class TestNode:
    def test_default_full_node(self, dgx1):
        assert Node(dgx1).gpu_count == 8

    def test_partial_node(self, dgx1):
        assert Node(dgx1, gpu_count=3).gpu_count == 3

    def test_invalid_gpu_count(self, dgx1):
        with pytest.raises(ValueError):
            Node(dgx1, gpu_count=0)
        with pytest.raises(ValueError):
            Node(dgx1, gpu_count=9)

    def test_device_index_validated(self, dgx1):
        node = Node(dgx1, gpu_count=2)
        with pytest.raises(ValueError):
            node.device(2)


class TestLocalPhase:
    def test_one_gpu_multigrid_equals_local(self, dgx1):
        node = Node(dgx1, gpu_count=1)
        r = _mgrid_sync(node, 1, 256)
        assert r.cross_ns == 0.0
        assert r.total_ns == pytest.approx(r.local_ns)

    def test_local_matches_fig8_one_gpu_panel(self, dgx1):
        errs = []
        for (b, t), paper in FIG8_MULTIGRID_V100_US[1].items():
            us = multigrid_local_latency_ns(dgx1, b, t) / 1e3
            errs.append(abs(us - paper) / paper)
        assert float(np.mean(errs)) < 0.06

    def test_local_matches_fig7_one_gpu_panel(self, p100_node):
        errs = []
        for (b, t), paper in FIG7_MULTIGRID_P100_US[1].items():
            us = multigrid_local_latency_ns(p100_node, b, t) / 1e3
            errs.append(abs(us - paper) / paper)
        assert float(np.mean(errs)) < 0.07

    def test_rejects_non_coresident_config(self, dgx1):
        with pytest.raises(ValueError):
            multigrid_local_latency_ns(dgx1, 4, 1024)


class TestCrossPhase:
    def test_single_gpu_is_free(self, dgx1):
        node = Node(dgx1)
        assert cross_gpu_latency_ns(dgx1, node.interconnect, [0], 1) == 0.0

    def test_two_hop_penalty_creates_plateau_jump(self, dgx1):
        node = Node(dgx1)
        c5 = cross_gpu_latency_ns(dgx1, node.interconnect, range(5), 1)
        c6 = cross_gpu_latency_ns(dgx1, node.interconnect, range(6), 1)
        assert c6 - c5 > 10_000  # the >10 us Fig 8 jump

    def test_plateaus_flat_within_groups(self, dgx1):
        node = Node(dgx1)
        lat = [
            cross_gpu_latency_ns(dgx1, node.interconnect, range(n), 1)
            for n in range(2, 9)
        ]
        # 2-5 GPUs within ~1 us of each other; likewise 6-8.
        assert max(lat[:4]) - min(lat[:4]) < 1000
        assert max(lat[4:]) - min(lat[4:]) < 3000

    def test_release_term_grows_with_blocks(self, dgx1):
        node = Node(dgx1)
        c1 = cross_gpu_latency_ns(dgx1, node.interconnect, range(2), 1)
        c32 = cross_gpu_latency_ns(dgx1, node.interconnect, range(2), 32)
        assert c32 - c1 > 15_000  # ~0.11 us * (32^1.5 - 1)


class TestMultiGridSimulation:
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 8])
    def test_fig8_panels_within_tolerance(self, dgx1, n):
        node = Node(dgx1)
        errs = []
        for (b, t), paper in FIG8_MULTIGRID_V100_US[n].items():
            sim = _mgrid_sync(node, b, t, gpu_ids=range(n))
            errs.append(abs(sim.latency_per_sync_us - paper) / paper)
        assert float(np.mean(errs)) < 0.08

    @pytest.mark.parametrize("n", [1, 2])
    def test_fig7_panels_within_tolerance(self, p100_node, n):
        node = Node(p100_node)
        errs = []
        for (b, t), paper in FIG7_MULTIGRID_P100_US[n].items():
            sim = _mgrid_sync(node, b, t, gpu_ids=range(n))
            errs.append(abs(sim.latency_per_sync_us - paper) / paper)
        assert float(np.mean(errs)) < 0.08

    def test_pcie_two_gpu_much_slower_than_nvlink(self, dgx1, p100_node):
        nv = _mgrid_sync(Node(dgx1), 1, 32, gpu_ids=range(2))
        pc = _mgrid_sync(Node(p100_node), 1, 32, gpu_ids=range(2))
        # Cross-GPU phase dominates and PCIe pays more (Fig 7 vs Fig 8).
        assert pc.cross_ns > nv.cross_ns

    def test_partial_gpus_deadlock(self, dgx1):
        node = Node(dgx1)
        with pytest.raises(DeadlockError):
            _mgrid_sync(
                node, 1, 64, gpu_ids=range(4), participating_gpus=[0, 1]
            )

    def test_partial_local_blocks_deadlock(self, dgx1):
        node = Node(dgx1)
        with pytest.raises(DeadlockError):
            _mgrid_sync(
                node, 1, 64, gpu_ids=range(2), full_local_participation=False
            )

    def test_participants_must_be_subset(self, dgx1):
        node = Node(dgx1)
        with pytest.raises(ValueError):
            _mgrid_sync(
                node, 1, 64, gpu_ids=[0, 1], participating_gpus=[0, 5]
            )

    def test_repeated_syncs_amortize(self, dgx1):
        node = Node(dgx1)
        one = _mgrid_sync(node, 1, 128, n_syncs=1).latency_per_sync_ns
        many = _mgrid_sync(node, 1, 128, n_syncs=4).latency_per_sync_ns
        assert many == pytest.approx(one, rel=0.05)

    def test_empty_gpu_set_rejected(self, dgx1):
        with pytest.raises(ValueError):
            _mgrid_sync(Node(dgx1), 1, 64, gpu_ids=[])

