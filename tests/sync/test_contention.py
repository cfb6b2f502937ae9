"""Contention model + strategy-kind resolution tests.

Covers the physically-honest ``SoftwareAtomicBarrier``: poll reads as
offered load on a shared :class:`~repro.sim.memory.MemoryChannel`, a
detection lag that grows with participant count and injected workload
traffic, per-wait ``Timeout`` construction, and the kind-string strategy
resolution every scope now supports.
"""

from __future__ import annotations

import pytest

from repro.sim.arch import DGX1_V100, DGX2_V100, V100
from repro.sim.engine import Timeout
from repro.sim.memory import MemoryChannel
from repro.sim.node import Node
from repro.sync import (
    CooperativeBarrier,
    GridGroup,
    HostBarrierGroup,
    MultiGridGroup,
    SoftwareAtomicBarrier,
    WarpGroup,
)


class TestMemoryChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryChannel(read_ns=-1.0)
        with pytest.raises(ValueError):
            MemoryChannel(read_ns=1.0, workload_util=1.0)
        with pytest.raises(ValueError):
            MemoryChannel(read_ns=1.0, workload_util=-0.1)
        ch = MemoryChannel(read_ns=1.0)
        with pytest.raises(ValueError):
            ch.effective_poll_ns(-1, 10.0)
        with pytest.raises(ValueError):
            ch.effective_poll_ns(1, 0.0)

    def test_capacity_floor_boundary_values(self):
        # Regression: utilizations just below 1 used to be accepted and
        # produced physically meaningless detection lags (0.999 stretches
        # every read 1000x).  The channel now rejects anything above the
        # documented capacity floor, exactly at the boundary.
        from repro.sim.memory import MAX_WORKLOAD_UTIL

        ch = MemoryChannel(read_ns=1.0, workload_util=MAX_WORKLOAD_UTIL)
        assert ch.workload_util == MAX_WORKLOAD_UTIL
        assert ch.stretched_read_ns() == pytest.approx(
            1.0 / (1.0 - MAX_WORKLOAD_UTIL)
        )
        for util in (
            MAX_WORKLOAD_UTIL + 1e-9,
            0.96,
            0.999,
            1.0 - 1e-12,
        ):
            with pytest.raises(ValueError, match="capacity floor"):
                MemoryChannel(read_ns=1.0, workload_util=util)
        # The error is actionable: it names the knob and the bound.
        with pytest.raises(ValueError, match="extra.workload_util"):
            ch.inject_workload(0.999)

    def test_capacity_floor_applies_to_strategy_knobs(self):
        # The scenario/scope knob path must hit the same guard: a sweep
        # that injects near-saturation workload traffic fails loudly at
        # construction instead of reporting absurd barrier latencies.
        with pytest.raises(ValueError, match="capacity floor"):
            GridGroup(
                V100, 1, 32, strategy="atomic",
                strategy_knobs={"workload_util": 0.999},
            )
        with pytest.raises(ValueError, match="capacity floor"):
            MultiGridGroup(
                Node(DGX1_V100), 1, 32, strategy="atomic",
                strategy_knobs={"workload_util": 0.99},
            )

    def test_uncontended_poll_period_is_nominal(self):
        ch = MemoryChannel(read_ns=10.0)
        assert ch.effective_poll_ns(1, 1000.0) == 1000.0

    def test_saturated_poll_period_is_service_bound(self):
        # 50 pollers x 10 ns of channel time per read > the 100 ns period.
        ch = MemoryChannel(read_ns=10.0)
        assert ch.effective_poll_ns(50, 100.0) == 500.0

    def test_workload_traffic_shrinks_capacity(self):
        ch = MemoryChannel(read_ns=10.0, workload_util=0.5)
        # Same offered load, half the capacity: period doubles again.
        assert ch.effective_poll_ns(50, 100.0) == 1000.0
        assert ch.stretched_read_ns() == 20.0
        assert ch.stretched_read_ns(30.0) == 80.0

    def test_monotone_in_pollers_and_workload(self):
        ch = MemoryChannel(read_ns=10.0)
        periods = [ch.effective_poll_ns(n, 100.0) for n in (1, 10, 20, 40)]
        assert periods == sorted(periods)
        reads = []
        for util in (0.0, 0.3, 0.6, 0.9):
            ch.inject_workload(util)
            reads.append(ch.stretched_read_ns(5.0))
        assert reads == sorted(reads) and len(set(reads)) == len(reads)


class TestDetectionLag:
    def test_legacy_constant_without_channel(self):
        strat = SoftwareAtomicBarrier(expected=8, atomic_service_ns=5.0, poll_ns=240.0)
        assert strat.detection_lag_ns() == 120.0

    def test_flag_rtt_added_without_channel(self):
        strat = SoftwareAtomicBarrier(
            expected=8, atomic_service_ns=5.0, poll_ns=240.0, flag_rtt_ns=700.0
        )
        assert strat.detection_lag_ns() == 820.0

    def test_grows_with_participant_count(self):
        lags = []
        for n in (2, 8, 32, 128):
            strat = SoftwareAtomicBarrier(
                expected=n, atomic_service_ns=5.0, poll_ns=100.0,
                channel=MemoryChannel(read_ns=10.0),
            )
            lags.append(strat.detection_lag_ns())
        assert lags == sorted(lags)
        assert lags[-1] > lags[0]

    def test_grows_with_workload_traffic(self):
        ch = MemoryChannel(read_ns=10.0)
        strat = SoftwareAtomicBarrier(
            expected=8, atomic_service_ns=5.0, poll_ns=100.0, channel=ch
        )
        lags = []
        for util in (0.0, 0.25, 0.5, 0.75):
            ch.inject_workload(util)
            lags.append(strat.detection_lag_ns())
        assert lags == sorted(lags) and len(set(lags)) == len(lags)

    def test_validation(self):
        with pytest.raises(ValueError):
            SoftwareAtomicBarrier(
                expected=2, atomic_service_ns=1.0, flag_rtt_ns=-1.0
            )


class TestPerWaitTimeout:
    def test_each_wait_constructs_a_fresh_timeout(self):
        """The detection-lag Timeout is built per wait, never shared.

        (The pre-contention code reused one ``Timeout`` instance across
        all waiters and rounds; the lag is now state-dependent, so every
        ``wait`` must price it at detection time.)
        """
        group = GridGroup(
            V100, 1, 128, sm_count=4,
            strategy=SoftwareAtomicBarrier(
                expected=4, atomic_service_ns=2.0, poll_ns=100.0
            ),
        )
        strat = group.strategy
        rnd = group.round_state(0)
        rnd.release.fire()
        timeouts = []
        for _ in range(2):
            gen = strat.wait(rnd)
            first = next(gen)
            assert first is rnd.release
            second = gen.send(None)
            assert isinstance(second, Timeout)
            timeouts.append(second)
        assert timeouts[0] is not timeouts[1]
        assert timeouts[0].delay == timeouts[1].delay == 50.0

    def test_multi_waiter_multi_round_event_sequence_pinned(self):
        """Regression pin: the constant-lag path's event times are exactly
        the analytic protocol costs, for every member and round.

        With 4 blocks on 4 SMs (1 warp each), service s, grid arrive a,
        per-warp release w and poll p, round r completes for every member
        at  (r+1) * (a + 5*s + p/2 + w):  four serialized counter atomics
        plus the releaser's flag atomic, then the broadcast + detection
        lag + one re-dispatch.
        """
        s, p = 2.0, 100.0
        group = GridGroup(
            V100, 1, 32, sm_count=4,
            strategy=SoftwareAtomicBarrier(
                expected=4, atomic_service_ns=s, poll_ns=p
            ),
        )
        a = group._t_arrive.delay
        w = group._t_release.delay
        run = group.run_rounds(n_syncs=3, backend="engine")
        round_ns = a + 5 * s + p / 2 + w
        for member in range(4):
            for r in range(3):
                assert run.release_ns[(member, r)] == pytest.approx(
                    (r + 1) * round_ns
                ), (member, r)


class TestStrategyKindResolution:
    def test_cooperative_string_matches_default(self):
        default = GridGroup(V100, 2, 256).simulate().total_ns
        named = GridGroup(V100, 2, 256, strategy="cooperative").simulate().total_ns
        assert named == default

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sync strategy"):
            GridGroup(V100, 1, 128, strategy="telepathy")

    def test_unsupported_kind_on_scope_rejected(self):
        with pytest.raises(ValueError, match="not supported by WarpGroup"):
            WarpGroup(V100, 32, strategy="atomic")
        with pytest.raises(ValueError, match="not supported by HostBarrierGroup"):
            HostBarrierGroup(4, 500.0, strategy="atomic")

    def test_knobs_require_a_kind_string(self):
        with pytest.raises(ValueError, match="apply only to strategy kind"):
            GridGroup(V100, 1, 128, strategy_knobs={"poll_ns": 50.0})
        with pytest.raises(ValueError, match="apply only to strategy kind"):
            GridGroup(
                V100, 1, 128,
                strategy=CooperativeBarrier(expected=80, release_delay_ns=1.0),
                strategy_knobs={"poll_ns": 50.0},
            )

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy knob"):
            GridGroup(V100, 1, 128, strategy="atomic", strategy_knobs={"pol_ns": 1.0})

    def test_grid_cpu_strategy_prices_a_relaunch(self):
        group = GridGroup(V100, 1, 128, sm_count=8, strategy="cpu")
        calib = V100.launch_calib("traditional")
        assert group.strategy.cost_ns == calib.gap_for(1) + calib.dispatch_for(1)


class TestContendedBarrierEndToEnd:
    def test_grid_atomic_total_grows_with_workload(self):
        totals = [
            GridGroup(
                V100, 1, 128, sm_count=8, strategy="atomic",
                strategy_knobs={"workload_util": util},
            ).simulate().total_ns
            for util in (0.0, 0.4, 0.8)
        ]
        assert totals == sorted(totals) and len(set(totals)) == len(totals)

    def test_multigrid_atomic_grows_with_participants(self):
        node = Node(DGX1_V100)
        lats = [
            MultiGridGroup(node, 1, 32, gpu_ids=range(n), strategy="atomic")
            .simulate()
            .latency_per_sync_us
            for n in (2, 4, 6, 8)
        ]
        assert lats == sorted(lats) and len(set(lats)) == len(lats)

    def test_topology_shapes_the_atomic_detection_lag(self):
        """Two-hop members on the cube-mesh make the atomic barrier's
        remote flag polls dearer than on the all-1-hop NVSwitch crossbar."""
        mesh = MultiGridGroup(
            Node(DGX1_V100), 1, 32, gpu_ids=range(8), strategy="atomic"
        )
        xbar = MultiGridGroup(
            Node(DGX2_V100, gpu_count=8), 1, 32, gpu_ids=range(8), strategy="atomic"
        )
        assert mesh.strategy.flag_rtt_ns > xbar.strategy.flag_rtt_ns

    def test_channel_accounts_detections(self):
        group = MultiGridGroup(
            Node(DGX1_V100), 1, 32, gpu_ids=range(4), strategy="atomic",
            backend="engine",
        )
        group.simulate(n_syncs=3)
        assert group.strategy.channel.detections == 4 * 3


class TestInapplicableKnobs:
    def test_knob_unused_by_kind_rejected(self):
        """A knob the chosen (scope, kind) never reads fails loudly instead
        of silently leaving the numbers unchanged."""
        with pytest.raises(ValueError, match="no effect"):
            GridGroup(V100, 1, 128, strategy="cpu", strategy_knobs={"poll_ns": 50.0})
        with pytest.raises(ValueError, match="no effect"):
            MultiGridGroup(
                Node(DGX1_V100), 1, 32, strategy="cooperative",
                strategy_knobs={"workload_util": 0.5},
            )

    def test_applicable_knob_still_accepted(self):
        group = GridGroup(
            V100, 1, 128, strategy="cooperative",
            strategy_knobs={"atomic_service_ns": 7.0},
        )
        assert group.strategy.atomic_service_ns == 7.0
