"""Analytic-vs-engine equivalence: the backend correctness contract.

The analytic backend promises *bit-identical* results on every workload
it declares itself eligible for — same ``total_ns``, same per-member
per-round release trace, same observable side effects (advanced clock,
counter ops, poll detections, released rounds).  These property tests
drive random uniform workloads across every scope type, strategy and
topology and compare float-for-float, with the event-precise engine as
the oracle.

Ineligible workloads must fall back to the engine: silently under
``auto`` (which is also what a scope with no backend set runs), with a
single per-(scope, reason) warning under ``analytic``.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import Scenario
from repro.sim.arch import get_gpu_spec
from repro.sim.backends import (
    ANALYTIC,
    BACKEND_CHOICES,
    reset_fallback_warnings,
)
from repro.sim.engine import Engine
from repro.sync.groups import (
    BlockGroup,
    GridGroup,
    HostBarrierGroup,
    MultiGridGroup,
    WarpGroup,
)
from repro.sync.strategies import CooperativeBarrier

V100 = get_gpu_spec("v100")
P100 = get_gpu_spec("p100")
SPECS = {"V100": V100, "P100": P100}


@pytest.fixture(scope="module")
def nodes():
    return {
        "DGX1": Scenario(node="DGX1").build_node(),
        "P100x2": Scenario(node="P100x2").build_node(),
    }


def assert_identical(make_group, n_syncs, members=None):
    """Run the same workload on both backends; everything must match."""
    g_eng = make_group()
    r_eng = g_eng.run_rounds(n_syncs, members=members, backend="engine")
    g_ana = make_group()
    reason = ANALYTIC.ineligible_reason(
        g_ana, n_syncs, tuple(members) if members is not None else tuple(range(g_ana.size))
    )
    assert reason is None, f"expected eligible, got: {reason}"
    r_ana = g_ana.run_rounds(n_syncs, members=members, backend="analytic")

    assert r_ana.total_ns == r_eng.total_ns  # bit-identical, no tolerance
    assert r_ana.release_ns == r_eng.release_ns
    assert r_ana.members == r_eng.members
    # Observable side effects downstream code reads.
    assert g_ana.engine.now == g_eng.engine.now
    assert g_ana.strategy.rounds_released == g_eng.strategy.rounds_released
    cp_e = getattr(g_eng.strategy, "_counter_port", None)
    cp_a = getattr(g_ana.strategy, "_counter_port", None)
    if cp_e is not None:
        assert cp_a.ops == cp_e.ops
    ch_e = getattr(g_eng.strategy, "channel", None)
    if ch_e is not None:
        assert g_ana.strategy.channel.detections == ch_e.detections
    for r in range(n_syncs):
        rnd_e, rnd_a = g_eng.round_state(r), g_ana.round_state(r)
        assert rnd_a.count == rnd_e.count
        assert rnd_a.release.fired and rnd_e.release.fired
    return r_ana


class TestGridEquivalence:
    """Fig 5 cells: the vectorized port-chain closed form."""

    @given(
        gpu=st.sampled_from(["V100", "P100"]),
        b=st.integers(min_value=1, max_value=8),
        t=st.sampled_from([32, 64, 128, 256]),
        n_syncs=st.integers(min_value=1, max_value=4),
        strategy=st.sampled_from(["cooperative", "atomic", "cpu"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_bit_identical(self, gpu, b, t, n_syncs, strategy):
        spec = SPECS[gpu]
        from repro.sim.occupancy import blocks_per_sm

        if b > blocks_per_sm(spec, t).blocks_per_sm:
            return  # not co-resident: illegal cell
        assert_identical(
            lambda: GridGroup(spec, b, t, strategy=strategy), n_syncs
        )

    @given(
        t=st.sampled_from([32, 128]),
        util=st.floats(min_value=0.0, max_value=0.75),
        n_syncs=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_grid_atomic_contention_knobs(self, t, util, n_syncs):
        knobs = {"workload_util": util, "poll_ns": 150.0}
        assert_identical(
            lambda: GridGroup(
                V100, 2, t, strategy="atomic", strategy_knobs=knobs
            ),
            n_syncs,
        )

    def test_grid_full_heatmap_cell_32x32(self):
        # The heaviest published Fig 5 cell: 2560 blocks.
        run = assert_identical(lambda: GridGroup(V100, 32, 32), 1)
        assert len(run.release_ns) == 2560


class TestFlatScopeEquivalence:
    """Warp / block / host barriers: the scalar uniform recurrence."""

    @given(
        size=st.integers(min_value=1, max_value=32),
        kind=st.sampled_from(["tile", "coalesced"]),
        gpu=st.sampled_from(["V100", "P100"]),
        n_syncs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_warp(self, size, kind, gpu, n_syncs):
        assert_identical(
            lambda: WarpGroup(SPECS[gpu], size, kind=kind), n_syncs
        )

    @given(
        w=st.integers(min_value=1, max_value=32),
        gpu=st.sampled_from(["V100", "P100"]),
        n_syncs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_block(self, w, gpu, n_syncs):
        assert_identical(lambda: BlockGroup(SPECS[gpu], w), n_syncs)

    @given(
        n=st.integers(min_value=1, max_value=16),
        cost=st.floats(min_value=0.0, max_value=1e5),
        n_syncs=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_host(self, n, cost, n_syncs):
        assert_identical(lambda: HostBarrierGroup(n, cost), n_syncs)


class TestMultiGridEquivalence:
    """Figs 7/8 and the sync_methods sweep: topology-carrying release."""

    @given(
        node_name=st.sampled_from(["DGX1", "P100x2"]),
        b=st.integers(min_value=1, max_value=4),
        t=st.sampled_from([32, 128, 256]),
        n_gpus=st.integers(min_value=1, max_value=8),
        strategy=st.sampled_from(["cooperative", "atomic", "cpu"]),
        n_syncs=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_multigrid(self, nodes, node_name, b, t, n_gpus, strategy, n_syncs):
        node = nodes[node_name]
        n_gpus = min(n_gpus, node.gpu_count)
        assert_identical(
            lambda: MultiGridGroup(
                node, b, t, gpu_ids=range(n_gpus), strategy=strategy
            ),
            n_syncs,
        )

    @given(util=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_multigrid_atomic_under_load(self, nodes, util):
        assert_identical(
            lambda: MultiGridGroup(
                nodes["DGX1"], 1, 32, gpu_ids=range(8),
                strategy="atomic", strategy_knobs={"workload_util": util},
            ),
            2,
        )

    def test_two_hop_topology_subset(self, nodes):
        # GPUs {0, 5} are two NVLink hops apart on the DGX-1 cube-mesh:
        # the detection lag carries the hop distance.
        assert_identical(
            lambda: MultiGridGroup(
                nodes["DGX1"], 1, 32, gpu_ids=(0, 5), strategy="atomic"
            ),
            1,
        )


class TestEligibilityAndFallback:
    def test_custom_strategy_subclass_is_ineligible(self):
        class TweakedBarrier(CooperativeBarrier):
            pass

        g = WarpGroup(V100, 8, strategy=TweakedBarrier(8, 10.0))
        reason = ANALYTIC.ineligible_reason(g, 1, tuple(range(8)))
        assert reason is not None and "strategy" in reason

    def test_partial_members_are_ineligible(self):
        g = WarpGroup(V100, 8)
        reason = ANALYTIC.ineligible_reason(g, 1, (0, 1, 2))
        assert reason is not None

    def test_grid_permuted_members_are_ineligible(self):
        g = GridGroup(V100, 1, 32)
        members = tuple(reversed(range(g.total_blocks)))
        assert ANALYTIC.ineligible_reason(g, 1, members)

    def test_busy_engine_is_ineligible(self):
        eng = Engine()
        eng.process(iter([]), name="other-work")
        g = WarpGroup(V100, 8, engine=eng)
        reason = ANALYTIC.ineligible_reason(g, 1, tuple(range(8)))
        assert reason is not None and "engine" in reason

    def test_ineligible_falls_back_with_single_warning(self):
        reset_fallback_warnings()

        class TweakedBarrier(CooperativeBarrier):
            pass

        def run_once():
            g = WarpGroup(
                V100, 8, strategy=TweakedBarrier(8, 10.0), backend="analytic"
            )
            return g.run_rounds(1)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r1 = run_once()
            r2 = run_once()  # same (scope, reason): no second warning
        fallbacks = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallbacks) == 1
        assert "falling back" in str(fallbacks[0].message)
        # The fallback result is the engine result.
        ref = WarpGroup(V100, 8, strategy=TweakedBarrier(8, 10.0)).run_rounds(
            1, backend="engine"
        )
        assert r1.total_ns == ref.total_ns == r2.total_ns
        reset_fallback_warnings()

    def test_auto_falls_back_silently(self):
        reset_fallback_warnings()

        class TweakedBarrier(CooperativeBarrier):
            pass

        g = WarpGroup(V100, 8, strategy=TweakedBarrier(8, 10.0), backend="auto")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g.run_rounds(1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_unknown_backend_name_fails_listing_choices(self):
        g = WarpGroup(V100, 8)
        with pytest.raises(ValueError, match="engine, analytic, auto"):
            g.run_rounds(1, backend="bogus")

    def test_registry_names(self):
        assert BACKEND_CHOICES == ("engine", "analytic", "auto")


class TestDefaultBackend:
    """A scope with no backend set dispatches as ``auto``."""

    @pytest.mark.parametrize(
        "make_group",
        [
            lambda nodes: WarpGroup(V100, 32, kind="coalesced"),
            lambda nodes: BlockGroup(P100, 16),
            lambda nodes: HostBarrierGroup(4, 2500.0),
            lambda nodes: GridGroup(V100, 2, 256),
            lambda nodes: GridGroup(P100, 4, 128, strategy="atomic"),
            lambda nodes: MultiGridGroup(nodes["DGX1"], 1, 32, gpu_ids=range(8)),
        ],
        ids=["warp", "block", "host", "grid", "grid-atomic", "multigrid"],
    )
    def test_eligible_scope_fires_no_events(self, nodes, make_group):
        default, oracle = make_group(nodes), make_group(nodes)
        run = default.run_rounds(3)
        ref = oracle.run_rounds(3, backend="engine")
        assert default.engine.event_count == 0 < oracle.engine.event_count
        assert run.total_ns == ref.total_ns  # bit-identical, no tolerance
        assert run.release_ns == ref.release_ns
        assert default.engine.now == oracle.engine.now

    def test_ineligible_scope_falls_back_silently(self):
        reset_fallback_warnings()

        class TweakedBarrier(CooperativeBarrier):
            pass

        def group():
            return WarpGroup(V100, 8, strategy=TweakedBarrier(8, 10.0))

        default = group()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = default.run_rounds(2)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert default.engine.event_count > 0
        assert run == group().run_rounds(2, backend="engine")


class TestDriverLevelEquivalence:
    """Whole-report parity: the figures themselves, not just one scope."""

    def test_fig5_reports_identical(self):
        from repro.experiments.exp_sync import run_fig5

        eng = run_fig5(Scenario(gpus=("V100",), backend="engine"))
        ana = run_fig5(Scenario(gpus=("V100",), backend="analytic"))
        assert ana.rows == eng.rows
        assert ana.artifacts == eng.artifacts
        assert ana.notes == eng.notes
        assert eng.backend == "engine" and ana.backend == "analytic"

    def test_sync_methods_reports_identical(self):
        from repro.experiments.exp_sync import run_sync_methods

        eng = run_sync_methods(Scenario(gpus=("V100",), backend="engine"))
        ana = run_sync_methods(Scenario(gpus=("V100",), backend="auto"))
        assert ana.rows == eng.rows
        assert ana.artifacts == eng.artifacts
        assert ana.notes == eng.notes
