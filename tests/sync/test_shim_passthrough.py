"""Kwarg-passthrough parity for the runtime's cooperative-groups shims.

``CudaRuntime.this_grid`` / ``CudaRuntime.this_multi_grid`` are thin
shims over the :mod:`repro.sync` scopes: they bind the runtime's engine
and the device spec (or node) and forward everything else.  They only
reproduce the scopes event-for-event if every strategy argument —
strategy kind, strategy knobs, a fully constructed strategy carrying an
injected :class:`~repro.sim.memory.MemoryChannel`, the device subset —
is forwarded rather than silently dropped.  These tests pin that: shim
and scope produce equal results for each strategy configuration, and
equal traces and event counts when both run on the engine.
"""

from __future__ import annotations

import pytest

from repro.cudasim import CudaRuntime
from repro.sim.engine import DeadlockError, Engine, use_backend
from repro.sim.memory import MemoryChannel
from repro.sim.node import Node
from repro.sync import GridGroup, MultiGridGroup
from repro.sync.strategies import SoftwareAtomicBarrier

# Valid (strategy, knobs) configurations per scope.  Knob sets are the
# ones each scope's builder actually reads — unread knobs are rejected by
# design, which is itself part of the parity (both paths must reject).
GRID_CONFIGS = [
    pytest.param(None, None, id="default"),
    pytest.param("cooperative", None, id="cooperative"),
    pytest.param("cooperative", {"atomic_service_ns": 5.0}, id="coop-knob"),
    pytest.param("atomic", None, id="atomic"),
    pytest.param(
        "atomic",
        {"poll_ns": 200.0, "poll_read_ns": 1.0, "workload_util": 0.5},
        id="atomic-knobs",
    ),
    pytest.param("cpu", None, id="cpu"),
]

MULTIGRID_CONFIGS = [
    pytest.param(None, None, id="default"),
    pytest.param("cooperative", None, id="cooperative"),
    pytest.param("atomic", None, id="atomic"),
    pytest.param(
        "atomic",
        {"poll_ns": 300.0, "workload_util": 0.25, "atomic_service_ns": 40.0},
        id="atomic-knobs",
    ),
    pytest.param("cpu", None, id="cpu"),
]


def _assert_engine_parity(shim_group, scope_group, n_syncs=1):
    """Shim- and scope-built groups run on the engine give equal release
    traces and fire the same number of events."""
    with use_backend("engine"):
        shim = shim_group.run_rounds(n_syncs)
        scope = scope_group.run_rounds(n_syncs)
    assert shim == scope
    assert shim_group.engine.event_count == scope_group.engine.event_count > 0


class TestGridShimParity:
    @pytest.mark.parametrize("strategy, knobs", GRID_CONFIGS)
    def test_strategy_and_knobs_forwarded(self, spec, strategy, knobs):
        def shim():
            return CudaRuntime.single_gpu(spec).this_grid(
                2, 128, strategy=strategy, strategy_knobs=knobs
            )

        def scope():
            return GridGroup(
                spec, 2, 128, engine=Engine(),
                strategy=strategy, strategy_knobs=knobs,
            )

        assert shim().simulate(n_syncs=2) == scope().simulate(n_syncs=2)
        _assert_engine_parity(shim(), scope(), n_syncs=2)

    def test_constructed_strategy_with_channel_forwarded(self, spec):
        # Channel injection travels inside a ready-made strategy instance;
        # the shim must hand the instance through untouched.
        def build():
            return SoftwareAtomicBarrier(
                expected=2 * spec.sm_count,
                atomic_service_ns=4.0,
                poll_ns=150.0,
                channel=MemoryChannel(read_ns=1.0, workload_util=0.5),
            )

        def shim():
            return CudaRuntime.single_gpu(spec).this_grid(2, 128, strategy=build())

        def scope():
            return GridGroup(spec, 2, 128, engine=Engine(), strategy=build())

        assert shim().simulate() == scope().simulate()
        _assert_engine_parity(shim(), scope())

    def test_bad_knobs_rejected_identically(self, spec):
        rt = CudaRuntime.single_gpu(spec)
        with pytest.raises(ValueError, match="no effect"):
            rt.this_grid(1, 64, strategy="cpu", strategy_knobs={"poll_ns": 1.0})
        with pytest.raises(ValueError, match="no effect"):
            GridGroup(spec, 1, 64, strategy="cpu", strategy_knobs={"poll_ns": 1.0})


class TestMultiGridShimParity:
    @pytest.mark.parametrize("strategy, knobs", MULTIGRID_CONFIGS)
    def test_strategy_and_knobs_forwarded(self, dgx1, strategy, knobs):
        def shim():
            return CudaRuntime.for_node(dgx1, gpu_count=4).this_multi_grid(
                1, 32, strategy=strategy, strategy_knobs=knobs
            )

        def scope():
            return MultiGridGroup(
                Node(dgx1, gpu_count=4), 1, 32, engine=Engine(),
                strategy=strategy, strategy_knobs=knobs,
            )

        assert shim().simulate(n_syncs=2) == scope().simulate(n_syncs=2)
        _assert_engine_parity(shim(), scope(), n_syncs=2)

    def test_constructed_strategy_with_channel_forwarded(self, dgx1):
        def build():
            return SoftwareAtomicBarrier(
                expected=3,
                atomic_service_ns=100.0,
                poll_ns=400.0,
                channel=MemoryChannel(read_ns=50.0, workload_util=0.25),
                flag_rtt_ns=100.0,
            )

        rt = CudaRuntime.for_node(dgx1, gpu_count=3)
        shim = rt.this_multi_grid(1, 32, strategy=build()).simulate()
        scope = MultiGridGroup(Node(dgx1, gpu_count=3), 1, 32, strategy=build()).simulate()
        assert shim == scope

    def test_gpu_ids_and_participation_forwarded(self, dgx1):
        rt = CudaRuntime.for_node(dgx1)
        shim = rt.this_multi_grid(1, 32, devices=(0, 2, 5)).simulate()
        scope = MultiGridGroup(Node(dgx1), 1, 32, gpu_ids=(0, 2, 5)).simulate()
        assert shim == scope
        assert shim.gpu_ids == (0, 2, 5)
        with pytest.raises(DeadlockError):
            rt.this_multi_grid(1, 32, devices=(0, 1, 2)).simulate(
                participating_gpus=(0, 1)
            )
