"""Tests for the cooperative-groups API."""

from __future__ import annotations

import pytest

import repro.core
import repro.sync
from repro.core.groups import (
    VALID_TILE_SIZES,
    KernelEnv,
    coalesced_threads,
    this_grid,
    this_multi_grid,
    this_thread_block,
    tiled_partition,
)
from repro.cudasim.errors import (
    CooperativeLaunchTooLarge,
    CudaError,
    InvalidConfiguration,
)
from repro.sim.node import Node
from repro.sync import BlockGroup, GridGroup, MultiGridGroup, WarpGroup


class TestKernelEnv:
    def test_traditional_env(self, spec):
        env = KernelEnv.traditional(spec, 2, 256)
        assert env.warps_per_block == 8
        assert env.warps_per_sm == 16
        assert env.total_blocks == 2 * spec.sm_count

    def test_cooperative_env_enforces_coresidency(self, spec):
        KernelEnv.cooperative(spec, 2, 1024)  # ok
        with pytest.raises(CooperativeLaunchTooLarge):
            KernelEnv.cooperative(spec, 4, 1024)

    def test_traditional_env_not_occupancy_gated(self, spec):
        # A traditional launch may oversubscribe freely.
        KernelEnv.traditional(spec, 4, 1024)

    def test_unknown_launch_kind(self, spec):
        with pytest.raises(InvalidConfiguration):
            KernelEnv(spec, 1, 32, "graph")

    def test_multi_device_requires_node(self, spec):
        with pytest.raises(InvalidConfiguration):
            KernelEnv(spec, 1, 32, "multi_device")

    def test_multi_device_constructor(self, dgx1):
        env = KernelEnv.multi_device(Node(dgx1, gpu_count=4), 1, 128)
        assert env.gpu_ids == (0, 1, 2, 3)

    def test_oversized_block_rejected(self, spec):
        with pytest.raises(InvalidConfiguration):
            KernelEnv.traditional(spec, 1, 4096)


class TestOneHierarchy:
    """The ``repro.core`` factories return the ``repro.sync`` scopes."""

    def test_factories_return_sync_scopes(self, dgx1):
        coop = KernelEnv.cooperative(dgx1.gpu, 2, 256)
        multi = KernelEnv.multi_device(Node(dgx1, gpu_count=4), 1, 128)
        assert type(tiled_partition(coop, 16)) is WarpGroup
        assert type(coalesced_threads(coop, 16)) is WarpGroup
        assert type(this_thread_block(coop)) is BlockGroup
        assert type(this_grid(coop)) is GridGroup
        assert type(this_multi_grid(multi)) is MultiGridGroup

    def test_no_second_group_class_or_factory(self):
        assert not {
            "ThreadBlockTile", "CoalescedGroup", "ThreadBlockGroup",
            "GridGroup", "MultiGridGroup",
        } & set(repro.core.__all__)
        assert not [n for n in repro.sync.__all__ if n.startswith("this_")]


class TestTileGroups:
    def test_valid_sizes_only(self, spec):
        env = KernelEnv.traditional(spec)
        for size in VALID_TILE_SIZES:
            tiled_partition(env, size)
        for bad in (3, 33, 64, 0):
            with pytest.raises(InvalidConfiguration, match="warp"):
                tiled_partition(env, bad)

    def test_sync_latency_from_table2(self, spec):
        env = KernelEnv.traditional(spec)
        tile = tiled_partition(env, 32)
        assert (tile.kind, tile.size) == ("tile", 32)
        assert tile.latency_model() == spec.cycles_to_ns(spec.warp_sync.tile_latency)

    def test_blocking_flag_tracks_architecture(self, v100, p100):
        assert tiled_partition(KernelEnv.traditional(v100), 32).blocks_all_threads
        assert not tiled_partition(KernelEnv.traditional(p100), 32).blocks_all_threads


def _cycles(group):
    return group.spec.ns_to_cycles(group.latency_model())


class TestCoalescedGroups:
    def test_full_vs_partial_latency_on_volta(self, v100):
        env = KernelEnv.traditional(v100)
        assert _cycles(coalesced_threads(env, 32)) == pytest.approx(14.0)
        assert _cycles(coalesced_threads(env, 16)) == pytest.approx(108.0)

    def test_pascal_latency_flat(self, p100):
        env = KernelEnv.traditional(p100)
        assert _cycles(coalesced_threads(env, 32)) == pytest.approx(1.0)
        assert _cycles(coalesced_threads(env, 7)) == pytest.approx(1.0)

    def test_size_bounds(self, spec):
        env = KernelEnv.traditional(spec)
        with pytest.raises(InvalidConfiguration):
            coalesced_threads(env, 0)
        with pytest.raises(InvalidConfiguration):
            coalesced_threads(env, 33)


class TestBlockGroup:
    def test_sync_latency_scales_with_block_width(self, spec):
        small = this_thread_block(KernelEnv.traditional(spec, 1, 64))
        big = this_thread_block(KernelEnv.traditional(spec, 1, 1024))
        assert big.latency_model() > small.latency_model()
        assert big.size == 32  # warps: a block barrier's participants


class TestGridGroup:
    def test_requires_cooperative_launch(self, spec):
        with pytest.raises(CudaError, match="cudaLaunchCooperativeKernel"):
            this_grid(KernelEnv.traditional(spec))

    def test_latency_matches_cost_model(self, spec):
        from repro.sim.device import grid_sync_latency_ns

        env = KernelEnv.cooperative(spec, 2, 256)
        grid = this_grid(env)
        assert grid.latency_model() == grid_sync_latency_ns(spec, 2, 256)
        assert grid.size == 2 * spec.sm_count  # blocks

    def test_simulated_sync_close_to_model(self, spec):
        env = KernelEnv.cooperative(spec, 1, 128)
        grid = this_grid(env)
        sim = grid.simulate().latency_per_sync_ns
        assert sim == pytest.approx(grid.latency_model(), rel=0.02)

    def test_partial_sync_deadlocks(self, spec):
        from repro.sim.engine import DeadlockError

        env = KernelEnv.cooperative(spec, 1, 128)
        with pytest.raises(DeadlockError):
            this_grid(env).simulate(participating_blocks=3)


class TestMultiGridGroup:
    def test_requires_multi_device_launch(self, spec):
        with pytest.raises(CudaError, match="MultiDevice"):
            this_multi_grid(KernelEnv.cooperative(spec, 1, 64))

    def test_num_grids(self, dgx1):
        env = KernelEnv.multi_device(Node(dgx1, gpu_count=4), 1, 64, gpu_ids=[0, 2])
        assert this_multi_grid(env).size == 2

    def test_duplicate_gpu_ids_rejected(self, dgx1):
        env = KernelEnv.multi_device(Node(dgx1, gpu_count=4), gpu_ids=[0, 0, 1])
        with pytest.raises(ValueError, match=r"repeat GPU\(s\) \[0\]"):
            this_multi_grid(env)

    def test_latency_includes_cross_phase(self, dgx1):
        node = Node(dgx1, gpu_count=8)
        one = this_multi_grid(
            KernelEnv.multi_device(node, 1, 64, gpu_ids=[0])
        ).latency_model()
        six = this_multi_grid(
            KernelEnv.multi_device(node, 1, 64, gpu_ids=range(6))
        ).latency_model()
        assert six - one > 15_000  # 2-hop penalty territory

    def test_simulated_matches_model(self, dgx1):
        env = KernelEnv.multi_device(Node(dgx1, gpu_count=2), 1, 128)
        mg = this_multi_grid(env)
        assert mg.simulate().latency_per_sync_ns == pytest.approx(
            mg.latency_model(), rel=0.02
        )
