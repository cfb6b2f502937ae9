"""The ``SyncScope`` protocol and the engine-level barrier scaffolding.

CUDA Cooperative Groups presents every synchronization granularity —
warp, block, grid, multi-device — through one interface (``group.sync()``)
even though the hardware mechanisms differ wildly (Figure 2 of the paper;
Section III).  This module is the simulator-side analogue: a *scope* is a
set of participants that rendezvous on the shared engine, and every scope
exposes the same four operations regardless of the barrier machinery
behind it:

``arrive(member, round)``
    Generator performing the member's arrival half of one barrier round
    (intra-scope costs, arrival counting, possibly triggering release).
``wait(member, round)``
    Generator blocking the member until the round is released, plus any
    per-member release cost (e.g. warp re-dispatch).
``sync(member, round)``
    ``arrive`` then ``wait`` — the Cooperative Groups ``sync()``.
``size`` / ``latency_model()``
    Participant count and the closed-form expected latency of one sync
    (nanoseconds), for cost-model consumers that don't need the DES run.

Splitting ``sync`` into ``arrive``/``wait`` mirrors the
``cuda::barrier``-style split-phase API and is what lets workloads
overlap independent work between the two halves.

The *mechanism* — how arrivals are counted and how the release propagates
— is a pluggable :class:`~repro.sync.strategies.BarrierStrategy`; see that
module for the paper's three multi-device methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Generator,
    Iterable,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.sanitize import events as _sanitize
from repro.sim import backends
from repro.sim import engine as _engine
from repro.sim.engine import Engine, SimulationError

from repro.sync.strategies import BarrierStrategy, Round

__all__ = ["SyncScope", "BarrierScope", "ScopeRun"]


@runtime_checkable
class SyncScope(Protocol):
    """Structural interface every synchronization scope implements."""

    @property
    def size(self) -> int:
        """Number of participants one barrier round must collect."""
        ...

    def latency_model(self) -> float:
        """Closed-form expected latency of one sync, in nanoseconds."""
        ...

    def arrive(self, member: int, round_index: int) -> Generator:
        ...

    def wait(self, member: int, round_index: int) -> Generator:
        ...

    def sync(self, member: int, round_index: int) -> Generator:
        ...


@dataclass(frozen=True)
class ScopeRun:
    """Outcome of :meth:`BarrierScope.run_rounds` — the generic trace.

    ``release_ns`` maps ``(member, round)`` to the simulated time at which
    that member completed that round's ``sync()``.  The barrier-semantics
    property tests are written against this trace.
    """

    members: Tuple[int, ...]
    n_syncs: int
    total_ns: float
    release_ns: Dict[Tuple[int, int], float] = field(repr=False, default_factory=dict)

    def releases_of(self, member: int) -> list:
        """Release times of one member, in round order."""
        return [
            self.release_ns[(member, r)]
            for r in range(self.n_syncs)
            if (member, r) in self.release_ns
        ]


class BarrierScope:
    """Shared machinery for engine-level scopes.

    Concrete scopes supply ``arrive``/``wait`` (usually delegating the
    counting/release part to their :class:`BarrierStrategy`) and inherit:

    * lazy per-round state (:class:`~repro.sync.strategies.Round`) with
      stable signal names, so deadlock reports read the same whether a
      protocol runs standalone or inside a larger simulation;
    * ``sync`` = ``arrive`` + ``wait``;
    * :meth:`run_rounds`, the generic driver that records the release
      trace, from the analytic closed forms where the backend dispatcher
      runs them or from one engine process per member.
    """

    #: Signal-name prefix for round releases (subclasses override).
    release_name = "scope-release"
    #: Process-name format for :meth:`run_rounds` members.
    member_name = "member{}"

    def __init__(self, engine: Optional[Engine], strategy: BarrierStrategy):
        self.engine = engine or Engine()
        self.strategy = strategy
        self.strategy.bind(self.engine)
        self._rounds: Dict[int, Round] = {}

    # -- round state -----------------------------------------------------

    def round_state(self, round_index: int) -> Round:
        """Per-round shared state, created on first touch.

        Creation allocates only (a signal object, a counter) — no engine
        events — so lazily creating round *r* when the first member
        arrives is observationally identical to pre-allocating all rounds.
        """
        rnd = self._rounds.get(round_index)
        if rnd is None:
            rnd = Round(
                index=round_index,
                release=self.engine.signal(f"{self.release_name}-{round_index}"),
            )
            self._rounds[round_index] = rnd
            if _sanitize.MONITOR is not None:
                _sanitize.MONITOR.on_round(self, rnd)
        return rnd

    @property
    def rounds_released(self) -> int:
        """Barrier rounds whose release has been triggered so far."""
        return self.strategy.rounds_released

    # -- the SyncScope operations ---------------------------------------

    @property
    def size(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def latency_model(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def arrive(self, member: int, round_index: int) -> Generator:
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_arrive(self, member, round_index, self.engine.now)
        yield from self.strategy.arrive(self.round_state(round_index))

    def wait(self, member: int, round_index: int) -> Generator:
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_wait(self, member, round_index, self.engine.now)
            yield from self.strategy.wait(self.round_state(round_index))
            _sanitize.MONITOR.on_wait_return(
                self, member, round_index, self.engine.now
            )
            return
        yield from self.strategy.wait(self.round_state(round_index))

    def sync(self, member: int, round_index: int) -> Generator:
        """One full barrier: arrive, then wait for the release."""
        yield from self.arrive(member, round_index)
        yield from self.wait(member, round_index)

    # -- generic DES driver ----------------------------------------------

    def _member_proc(
        self, member: int, n_syncs: int, trace: Dict[Tuple[int, int], float]
    ) -> Generator:
        engine = self.engine
        for r in range(n_syncs):
            yield from self.sync(member, r)
            trace[(member, r)] = engine.now

    def run_rounds(
        self,
        n_syncs: int = 1,
        members: Optional[Iterable[int]] = None,
        collect_trace: bool = True,
    ) -> ScopeRun:
        """Drive ``n_syncs`` barrier rounds across ``members`` (default:
        all ``size`` participants) and return the release trace.

        The backend dispatcher runs the closed forms where the oracle
        switch allows shortcuts (:func:`repro.sim.engine.shortcuts_allowed`)
        and the ladder is eligible, the engine otherwise.
        ``collect_trace=False`` lets the analytic backend skip building
        the per-member release map when only ``total_ns`` is wanted; the
        engine records the trace as a side effect either way.

        A strict subset of participants leaves the arrival counter short
        and the engine raises
        :class:`~repro.sim.engine.DeadlockError` — the Section VIII-B
        partial-group pitfall, uniformly across every scope whose
        strategy counts arrivals.
        """
        if n_syncs < 1:
            raise ValueError("n_syncs must be >= 1")
        if self._rounds:
            raise SimulationError(
                "scope has already driven barrier rounds; "
                "create a fresh group per simulation"
            )
        ids = tuple(members) if members is not None else tuple(range(self.size))
        # Read at call time: a tracer may patch ``backends.dispatch``.
        return backends.dispatch(self, n_syncs, ids, _engine.BACKEND, collect_trace)

    def _run_rounds_engine(
        self, n_syncs: int, ids: Tuple[int, ...]
    ) -> ScopeRun:
        """The event-precise driver: one process per member on the shared
        engine.  The backend dispatcher calls this for every ladder it
        does not hand to the closed forms."""
        trace: Dict[Tuple[int, int], float] = {}
        t0 = self.engine.now
        for m in ids:
            self.engine.process(
                self._member_proc(m, n_syncs, trace),
                name=self.member_name.format(m),
            )
        self.engine.run()
        return ScopeRun(
            members=ids,
            n_syncs=n_syncs,
            total_ns=self.engine.now - t0,
            release_ns=trace,
        )
