"""Unit tests for the cooperative-groups-style sync API (`repro.sync`)."""

from __future__ import annotations

import pytest

from repro.cudasim.runtime import CudaRuntime
from repro.sim.arch import DGX1_V100, P100, V100
from repro.sim.device import grid_sync_latency_ns
from repro.sim.engine import DeadlockError, SimulationError
from repro.sim.node import Node, cross_gpu_latency_ns, multigrid_local_latency_ns
from repro.sim.sm import block_sync_latency_cycles
from repro.sync import (
    BlockGroup,
    CooperativeBarrier,
    CpuBarrier,
    GridGroup,
    HostBarrierGroup,
    MultiGridGroup,
    SoftwareAtomicBarrier,
    SyncScope,
    WarpGroup,
)


class TestProtocolConformance:
    """Every concrete scope satisfies the structural SyncScope protocol."""

    def _scopes(self):
        node = Node(DGX1_V100, gpu_count=2)
        return [
            WarpGroup(V100, 32),
            BlockGroup(V100, 4),
            GridGroup(V100, 1, 128),
            MultiGridGroup(node, 1, 128),
            HostBarrierGroup(2, 500.0),
        ]

    def test_isinstance_of_protocol(self):
        for scope in self._scopes():
            assert isinstance(scope, SyncScope), type(scope).__name__

    def test_size_and_latency_model_positive(self):
        for scope in self._scopes():
            assert scope.size >= 1
            assert scope.latency_model() > 0

    def test_arrive_wait_sync_are_generators(self):
        import types

        for scope in self._scopes():
            for op in (scope.arrive, scope.wait, scope.sync):
                assert isinstance(op(0, 0), types.GeneratorType)


class TestWarpGroup:
    def test_latency_matches_calibration(self):
        assert WarpGroup(V100, 32, "tile").latency_model() == pytest.approx(
            V100.cycles_to_ns(V100.warp_sync.tile_latency)
        )
        # V100 fast-paths the full coalesced warp; partial groups are slow.
        full = WarpGroup(V100, 32, "coalesced").latency_model()
        partial = WarpGroup(V100, 16, "coalesced").latency_model()
        assert partial > full

    def test_blocking_mirrors_architecture(self):
        assert WarpGroup(V100, 32).blocks_all_threads
        assert not WarpGroup(P100, 32).blocks_all_threads

    def test_run_matches_model(self):
        group = WarpGroup(V100, 32)
        assert group.run_rounds().total_ns == pytest.approx(group.latency_model())

    def test_invalid_size_and_kind(self):
        with pytest.raises(ValueError):
            WarpGroup(V100, 0)
        with pytest.raises(ValueError):
            WarpGroup(V100, 33)
        with pytest.raises(ValueError):
            WarpGroup(V100, 32, kind="grid")


class TestBlockGroup:
    def test_latency_matches_table_model(self):
        group = BlockGroup(V100, 8)
        assert group.latency_model() == pytest.approx(
            V100.cycles_to_ns(block_sync_latency_cycles(V100, 8))
        )

    def test_uncontended_sync_costs_single_shot_latency(self):
        group = BlockGroup(V100, 8)
        assert group.run_rounds().total_ns == pytest.approx(group.latency_model())

    def test_oversized_block_rejected(self):
        with pytest.raises(ValueError, match="block limit"):
            BlockGroup(V100, 64)


class TestGridGroup:
    def test_simulation_matches_closed_form(self):
        for b, t in ((1, 32), (2, 256), (8, 64)):
            group = GridGroup(V100, b, t)
            assert group.simulate().latency_per_sync_ns == pytest.approx(
                grid_sync_latency_ns(V100, b, t), rel=0.01
            )

    def test_size_is_total_blocks(self):
        assert GridGroup(V100, 2, 128).size == 2 * V100.sm_count

    def test_partial_participation_deadlocks(self):
        with pytest.raises(DeadlockError):
            GridGroup(V100, 1, 64).simulate(
                participating_blocks=V100.sm_count - 1
            )

    def test_groups_are_single_shot(self):
        group = GridGroup(V100, 1, 64, sm_count=4)
        group.simulate()
        with pytest.raises(SimulationError, match="fresh group"):
            group.simulate()

    def test_split_arrive_wait_compose(self):
        """Driving arrive/wait manually equals run_rounds' sync() path on
        the engine."""
        driven = GridGroup(V100, 1, 32, sm_count=4, backend="engine").simulate(
            n_syncs=2
        )

        group = GridGroup(V100, 1, 32, sm_count=4)
        eng = group.engine

        def member(block_id):
            for r in range(2):
                yield from group.arrive(block_id, r)
                yield from group.wait(block_id, r)

        t0 = eng.now
        for b in range(group.size):
            eng.process(member(b), name=f"grid-block{b}")
        eng.run()
        assert eng.now - t0 == driven.total_ns


class TestMultiGridGroup:
    def test_latency_model_is_local_plus_cross(self):
        node = Node(DGX1_V100)
        group = MultiGridGroup(node, 1, 256, gpu_ids=range(6))
        expected = multigrid_local_latency_ns(
            DGX1_V100, 1, 256
        ) + cross_gpu_latency_ns(DGX1_V100, node.interconnect, range(6), 1)
        assert group.latency_model() == expected

    def test_simulation_matches_model(self):
        group = MultiGridGroup(Node(DGX1_V100), 2, 128, gpu_ids=range(4))
        r = group.simulate()
        assert r.latency_per_sync_ns == pytest.approx(group.latency_model())

    def test_partial_gpus_deadlock(self):
        group = MultiGridGroup(Node(DGX1_V100), 1, 64, gpu_ids=range(4))
        with pytest.raises(DeadlockError):
            group.simulate(participating_gpus=[0, 1])

    def test_partial_local_blocks_deadlock(self):
        group = MultiGridGroup(
            Node(DGX1_V100), 1, 64, gpu_ids=range(2),
            full_local_participation=False,
        )
        with pytest.raises(DeadlockError):
            group.simulate()

    def test_validation(self):
        node = Node(DGX1_V100, gpu_count=2)
        with pytest.raises(ValueError, match="not be empty"):
            MultiGridGroup(node, 1, 64, gpu_ids=[])
        with pytest.raises(ValueError):
            MultiGridGroup(node, 1, 64, gpu_ids=[0, 5])
        with pytest.raises(ValueError, match="subset"):
            MultiGridGroup(node, 1, 64, gpu_ids=[0, 1]).simulate(
                participating_gpus=[0, 7]
            )

    def test_duplicate_gpu_ids_rejected(self):
        # A repeated id would count one GPU twice: the counter expects
        # more arrivals than there are members, and the cross phase is
        # priced for a GPU that is not there.
        node = Node(DGX1_V100, gpu_count=4)
        with pytest.raises(ValueError, match=r"repeat GPU\(s\) \[0\]"):
            MultiGridGroup(node, 1, 128, gpu_ids=[0, 0, 1])


class TestHostBarrierGroup:
    def test_rounds_and_cost(self):
        group = HostBarrierGroup(4, 700.0)
        run = group.run_rounds(n_syncs=3)
        assert group.rounds_released == 3
        assert run.total_ns == pytest.approx(3 * 700.0)

    def test_mismatched_barrier_counts_deadlock(self):
        group = HostBarrierGroup(2, 100.0)
        eng = group.engine

        def worker(tid):
            yield from group.barrier(tid)
            if tid == 0:
                yield from group.barrier(tid)  # partner never arrives

        for tid in range(2):
            eng.process(worker(tid), name=f"host{tid}")
        with pytest.raises(DeadlockError):
            eng.run()


class TestStrategies:
    def test_software_atomic_strategy_swaps_cleanly(self):
        """Same scope, different mechanism: the software barrier replaces
        the hardware release broadcast with an extra flag atomic plus a
        polling detection lag, and still completes every round."""
        service = V100.grid_sync.atomic_service_ns(1, 8)
        coop = GridGroup(V100, 1, 128, sm_count=8).simulate().total_ns
        group = GridGroup(
            V100, 1, 128, sm_count=8,
            strategy=SoftwareAtomicBarrier(
                expected=8, atomic_service_ns=service, poll_ns=240.0
            ),
        )
        sw = group.simulate().total_ns
        assert sw > 0 and sw != coop
        # Only the release mechanics moved: the difference is exactly the
        # hardware flag broadcast vs (one extra atomic + half a poll).
        flag_ns = V100.grid_sync.base_ns * 0.6
        assert sw - coop == pytest.approx((service + 120.0) - flag_ns)

    def test_cpu_strategy_on_multigrid_scope(self):
        """Scope x strategy is a free matrix: a multi-grid scope can run
        over a CPU-side barrier (the paper's Fig 14 choreography)."""
        node = Node(DGX1_V100, gpu_count=4)
        cost = DGX1_V100.omp_barrier_ns(4)
        group = MultiGridGroup(
            node, 1, 128, gpu_ids=range(4),
            strategy=CpuBarrier(expected=4, cost_ns=cost),
        )
        r = group.simulate()
        # local phases still paid, cross phase replaced by the omp cost
        assert r.total_ns == pytest.approx(group.local_ns + cost)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            CooperativeBarrier(expected=0, release_delay_ns=1.0)
        with pytest.raises(ValueError):
            CooperativeBarrier(expected=1, release_delay_ns=-1.0)
        with pytest.raises(ValueError):
            SoftwareAtomicBarrier(expected=1, atomic_service_ns=1.0, poll_ns=0.0)
        with pytest.raises(ValueError):
            CpuBarrier(expected=1, cost_ns=-1.0)


class TestRuntimeFactories:
    def test_this_grid_bound_to_runtime_engine(self):
        rt = CudaRuntime.single_gpu(V100)
        group = rt.this_grid(2, 256)
        assert group.engine is rt.engine
        assert group.size == 2 * V100.sm_count

    def test_this_multi_grid_defaults_to_all_devices(self):
        rt = CudaRuntime.for_node(DGX1_V100, gpu_count=4)
        group = rt.this_multi_grid(1, 128)
        assert group.engine is rt.engine
        assert group.gpu_ids == (0, 1, 2, 3)

    def test_this_multi_grid_device_subset(self):
        rt = CudaRuntime.for_node(DGX1_V100, gpu_count=4)
        assert rt.this_multi_grid(1, 128, devices=[0, 2]).gpu_ids == (0, 2)

    def test_this_multi_grid_rejects_duplicate_devices(self):
        rt = CudaRuntime.for_node(DGX1_V100, gpu_count=4)
        with pytest.raises(ValueError, match=r"repeat GPU\(s\) \[1\]"):
            rt.this_multi_grid(1, 128, devices=[1, 1])

    def test_this_grid_validates_co_residency(self):
        rt = CudaRuntime.single_gpu(V100)
        with pytest.raises(ValueError, match="co-reside"):
            rt.this_grid(3, 1024)

    def test_groups_share_runtime_timeline(self):
        """A barrier driven from host processes advances the runtime clock."""
        rt = CudaRuntime.for_node(DGX1_V100, gpu_count=2)
        group = rt.this_multi_grid(1, 128)

        def gpu_proc(gid):
            yield from group.sync(gid, 0)

        for g in range(2):
            rt.spawn_host(gpu_proc(g), name=f"gpu{g}")
        rt.engine.run()
        assert rt.engine.now == pytest.approx(group.latency_model())
