"""Closed-form execution of uniform barrier ladders.

The engine's barrier workloads are *uniform*: every member runs the same
``sync()`` ladder with no data-dependent control flow, so the full
discrete-event schedule collapses to per-member virtual clocks advanced
by closed forms — broadcast adds for fixed-delay phases, a serialized
add-chain for the arrival counter, the
:class:`~repro.sim.memory.MemoryChannel` contention closed form for
spin-poll detection, and one running-sum chain (``itertools.accumulate``)
shared by the grid's per-SM release ports.

Bit-identity, not approximation.  Every formula below performs the *same
IEEE-754 additions in the same order* as the engine's event walk (the
derivations are spelled out in ``docs/backends.md``), so an eligible
workload produces a :class:`~repro.sync.scope.ScopeRun` whose every
float equals the engine's — the property the equivalence suite
(``tests/sim/test_backend_equivalence.py``) pins down.  Workloads the
closed forms cannot reproduce exactly report an
:meth:`~AnalyticBackend.ineligible_reason` and the dispatcher falls back
to the engine.

Key engine facts the forms rely on (proved against ``sim/engine.py`` /
``sync/`` sources, and re-checked by the equivalence suite):

* FIFO-at-equal-time everywhere (shared seq counter), so ties resolve
  in member-creation order and the counter/port service order equals the
  member index order in every round.
* ``Resource`` release hands the slot to the oldest waiter, so ``b``
  blocks sharing one release port are served round-robin — member rank
  ``i``'s last warp grant is slot ``(wpb - 1) * b + i`` of that port's
  grant chain.
* ``itertools.accumulate`` over floats is the same sequential left fold
  of additions the engine performs, so one chain prices every port
  without changing a single bit.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.sync.strategies import (
    BarrierStrategy,
    CooperativeBarrier,
    CpuBarrier,
    SoftwareAtomicBarrier,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sync.scope import BarrierScope, ScopeRun

__all__ = ["ANALYTIC", "AnalyticBackend"]

#: Strategy classes whose counting/release protocol has an exact closed
#: form.  Exact types only — a subclass may override arrive/wait.
_EXACT_STRATEGIES = (CooperativeBarrier, SoftwareAtomicBarrier, CpuBarrier)


def _uniform_release(
    strategy: BarrierStrategy, arrive_ns: float, n: int
) -> Tuple[float, Optional[float]]:
    """Release time of one round whose ``n`` arrivals all land at
    ``arrive_ns``, plus the per-waiter detection lag (``None`` when the
    strategy has no post-release cost).

    The serialized counter chain over equal arrivals is the left fold
    ``C_k = C_{k-1} + svc`` starting from the first grant at
    ``arrive_ns`` — performed add-by-add to match the engine's floats.
    """
    cls = strategy.__class__
    if cls is CooperativeBarrier:
        port = strategy._counter_port
        if port is None:
            return arrive_ns + strategy.release_delay_ns, None
        c = arrive_ns
        svc = port.service_ns
        for _ in range(n):
            c = c + svc
        return c + strategy.release_delay_ns, None
    if cls is SoftwareAtomicBarrier:
        svc = strategy._counter_port.service_ns
        c = arrive_ns
        for _ in range(n + 1):  # n arrivals + the releaser's flag RMW
            c = c + svc
        return c, strategy.detection_lag_ns()
    # CpuBarrier: the last arrival pays the calibrated barrier cost.
    return arrive_ns + strategy.cost_ns, None


class AnalyticBackend:
    """Closed-form execution of eligible barrier workloads."""

    # -- eligibility ------------------------------------------------------

    def ineligible_reason(
        self, scope: "BarrierScope", n_syncs: int, members: Sequence[int]
    ) -> Optional[str]:
        # Imported here (not module top) to keep backends importable
        # without dragging every scope in at package-import time.
        from repro.sync.groups import (
            BlockGroup,
            GridGroup,
            HostBarrierGroup,
            MultiGridGroup,
            WarpGroup,
        )

        # Exact types only: a subclass may override the yield ladders the
        # closed forms were derived from.
        if type(scope) not in (
            WarpGroup,
            BlockGroup,
            GridGroup,
            MultiGridGroup,
            HostBarrierGroup,
        ):
            return f"unsupported scope type {type(scope).__name__}"
        strategy = scope.strategy
        if strategy.__class__ not in _EXACT_STRATEGIES:
            return f"unsupported strategy type {type(strategy).__name__}"
        if strategy.expected != scope.size:
            return (
                f"strategy expects {strategy.expected} arrivals but the "
                f"scope has {scope.size} members"
            )
        if strategy.rounds_released != 0:
            return "strategy has already released rounds"
        ids = tuple(members)
        if len(set(ids)) != len(ids):
            return "duplicate members"
        if len(ids) != scope.size:
            return (
                f"{len(ids)} participants of {scope.size} — a partial "
                "group deadlocks (engine raises DeadlockError)"
            )
        if type(scope) is GridGroup:
            if ids != tuple(range(scope.total_blocks)):
                return "grid members must be 0..total_blocks-1 in order"
            if n_syncs != 1:
                return "grid rounds after the first arrive staggered"
        elif type(scope) is MultiGridGroup:
            # Member ids are trace labels only — the cross/local latencies
            # were baked from gpu_ids at construction — so any full-width
            # distinct id set is exact.
            if not scope.full_local_participation:
                return "partial local participation hangs the barrier"
        engine = scope.engine
        if engine._live or engine._ready or engine._heap:
            return "engine has other pending work (non-uniform schedule)"
        return None

    # -- execution --------------------------------------------------------

    def run_rounds(
        self,
        scope: "BarrierScope",
        n_syncs: int,
        members: Tuple[int, ...],
        collect_trace: bool = True,
    ) -> "ScopeRun":
        from repro.sync.groups import GridGroup, MultiGridGroup
        from repro.sync.scope import ScopeRun

        ids = tuple(members)
        t0 = scope.engine.now
        trace: Dict[Tuple[int, int], float] = {}
        if type(scope) is GridGroup:
            final = self._run_grid(scope, ids, collect_trace, trace)
        elif type(scope) is MultiGridGroup:
            final = self._run_flat(
                scope,
                n_syncs,
                ids,
                collect_trace,
                trace,
                pre_ns=scope._t_arrive.delay,
                post_ns=scope._t_release_local.delay,
            )
        else:
            final = self._run_flat(scope, n_syncs, ids, collect_trace, trace)
        self._commit(scope, n_syncs, len(ids), final)
        return ScopeRun(
            members=ids, n_syncs=n_syncs, total_ns=final - t0, release_ns=trace
        )

    def _run_flat(
        self,
        scope: "BarrierScope",
        n_syncs: int,
        ids: Tuple[int, ...],
        collect_trace: bool,
        trace: Dict[Tuple[int, int], float],
        pre_ns: Optional[float] = None,
        post_ns: Optional[float] = None,
    ) -> float:
        """Warp/Block/Host/MultiGrid ladders: every round is uniform
        (all members arrive together, all finish together), so the whole
        run is a scalar recurrence.  ``pre_ns``/``post_ns`` are the
        multi-grid local-phase timeouts (``None`` = scope has none)."""
        strategy = scope.strategy
        n = len(ids)
        t = scope.engine.now
        for r in range(n_syncs):
            a = t + pre_ns if pre_ns is not None else t
            release, lag = _uniform_release(strategy, a, n)
            f = release + lag if lag is not None else release
            if post_ns is not None:
                f = f + post_ns
            if collect_trace:
                for m in ids:
                    trace[(m, r)] = f
            t = f
        return t

    def _run_grid(
        self,
        scope: "GridGroup",
        ids: Tuple[int, ...],
        collect_trace: bool,
        trace: Dict[Tuple[int, int], float],
    ) -> float:
        """Grid ladder, one round: uniform arrivals -> counter chain ->
        release at ``R`` (+ detection lag) -> every per-SM release port
        serves its ``b`` members round-robin for ``wpb`` warp grants each.
        All ports carry identical grant chains, so one running sum prices
        them all; member ``m`` (rank ``m // sm_count``) finishes at slot
        ``(wpb - 1) * b + rank`` — chain index ``+1`` past the start.
        """
        b = scope.blocks_per_sm
        wpb = scope.warps_per_block
        arrive = scope.engine.now + scope._t_arrive.delay
        release, lag = _uniform_release(scope.strategy, arrive, scope.total_blocks)
        start = release + lag if lag is not None else release
        chain = list(accumulate(repeat(scope._t_release.delay, wpb * b), initial=start))
        if collect_trace:
            first = 1 + (wpb - 1) * b
            for i, m in enumerate(ids):
                trace[(m, 0)] = chain[first + i // scope.sm_count]
        return chain[-1]

    def _commit(
        self,
        scope: "BarrierScope",
        n_syncs: int,
        n_members: int,
        final_ns: float,
    ) -> None:
        """Leave the scope/strategy/engine in the exact observable state
        the engine-backed run produces: advanced clock, released rounds,
        counter op counts, poll detections, fired release signals."""
        strategy = scope.strategy
        strategy.rounds_released += n_syncs
        cls = strategy.__class__
        if cls is CooperativeBarrier:
            if strategy._counter_port is not None:
                strategy._counter_port.ops += n_members * n_syncs
        elif cls is SoftwareAtomicBarrier:
            strategy._counter_port.ops += (n_members + 1) * n_syncs
            if strategy.channel is not None:
                strategy.channel.detections += n_members * n_syncs
        for r in range(n_syncs):
            rnd = scope.round_state(r)
            rnd.count = strategy.expected
            rnd.release.fired = True
        scope.engine.now = final_ns


#: The instance :func:`repro.sim.backends.dispatch` runs.
ANALYTIC = AnalyticBackend()
