"""Pluggable barrier strategies — the paper's multi-device sync methods.

The paper evaluates three ways of synchronizing work that spans a scope
the hardware cannot barrier directly (Sections VI/VII):

* **Cooperative launch** (:class:`CooperativeBarrier`) — what
  ``cudaLaunchCooperativeKernel[MultiDevice]`` provides: an arrival
  counter serviced by the memory system (serialized L2 atomics for a
  grid; leader flag exchange over the interconnect for a multi-grid),
  with the last arrival broadcasting a release flag.  This is the
  mechanism behind ``grid.sync()`` / ``multi_grid.sync()``.
* **Atomic software barrier** (:class:`SoftwareAtomicBarrier`) — the
  lock-free two-phase barrier a kernel can build itself when a
  cooperative launch is unavailable (Xiao & Feng-style; extended to
  fine-grained kernel sync by Jangda et al., see PAPERS.md): atomically
  increment a generation counter, then *spin-poll* a release flag.
  Functionally equivalent, but arrival and detection both cost extra
  memory traffic — the spin adds a detection lag of half the poll
  period on average.
* **CPU-side barrier** (:class:`CpuBarrier`) — the Fig 6 pattern: one
  host thread per device meets at an OpenMP-style barrier whose cost is
  calibrated per node (flat-ish in participant count, which is why the
  CPU-side series of Fig 9 is nearly horizontal).

A strategy owns the *counting and release* machinery only; scope-specific
costs (intra-block arrive, per-warp re-dispatch, local grid phases) stay
in the :mod:`repro.sync.groups` classes, so one scope can swap strategies
— the "atomic-vs-cooperative grid sync on any topology" sweep — without
touching its cost model.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sanitize import events as _sanitize
from repro.sim.engine import Engine, Signal, Timeout
from repro.sim.memory import L2AtomicUnit, MemoryChannel

__all__ = [
    "Round",
    "BarrierStrategy",
    "CooperativeBarrier",
    "SoftwareAtomicBarrier",
    "CpuBarrier",
    "STRATEGY_KINDS",
]


class Round:
    """Shared state of one barrier round: arrival count + release signal."""

    __slots__ = ("index", "count", "release")

    def __init__(self, index: int, release: Signal):
        self.index = index
        self.count = 0
        self.release = release

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Round({self.index}, arrived={self.count})"


class BarrierStrategy:
    """Base class: counts arrivals, triggers and observes the release.

    Subclasses implement :meth:`arrive` (cost of one arrival + counting;
    the ``expected``-th arrival must trigger the round's release) and
    :meth:`wait` (block until released, plus any detection cost).  Both
    are generators run inside the member's process.
    """

    #: Arrivals one round must collect before it releases.
    expected: int

    def __init__(self, expected: int):
        if expected < 1:
            raise ValueError("a barrier needs at least one participant")
        self.expected = expected
        self.engine: Optional[Engine] = None
        self.rounds_released = 0

    def bind(self, engine: Engine) -> None:
        """Attach engine-backed resources.  Called once by the scope."""
        self.engine = engine

    def _count_arrival(self, rnd: Round, release_delay_ns: float) -> bool:
        """Count one arrival; the last one schedules the release.

        Returns ``True`` for the releasing (last) arrival.
        """
        rnd.count += 1
        if rnd.count == self.expected:
            self.rounds_released += 1
            if _sanitize.MONITOR is not None:
                _sanitize.MONITOR.on_release(rnd, self.engine.now, release_delay_ns)
            self.engine.schedule_fire(release_delay_ns, rnd.release)
            return True
        return False

    def arrive(self, rnd: Round) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError

    def wait(self, rnd: Round) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError


class CooperativeBarrier(BarrierStrategy):
    """Hardware cooperative-launch barrier (``grid.sync()`` family).

    ``atomic_service_ns`` models the serialized arrival-counter port: the
    grid barrier's per-block ``atomicAdd`` in L2 (pass the calibrated
    service time), while the multi-grid cross-GPU phase counts leader
    reports without a serialized port (pass ``None`` — arrival order is
    already serialized by each GPU's local phase).  The last arrival
    broadcasts the release flag after ``release_delay_ns`` (flag write
    round-trips for a grid; interconnect flag exchange for a multi-grid).
    """

    def __init__(
        self,
        expected: int,
        release_delay_ns: float,
        atomic_service_ns: Optional[float] = None,
    ):
        super().__init__(expected)
        if release_delay_ns < 0:
            raise ValueError("release_delay_ns must be non-negative")
        self.release_delay_ns = float(release_delay_ns)
        self.atomic_service_ns = atomic_service_ns
        self._counter_port: Optional[L2AtomicUnit] = None

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        if self.atomic_service_ns is not None:
            self._counter_port = L2AtomicUnit(
                engine, self.atomic_service_ns, name="barrier-arrival-counter"
            )

    def arrive(self, rnd: Round) -> Generator:
        if self._counter_port is not None:
            yield from self._counter_port.atomic()
        self._count_arrival(rnd, self.release_delay_ns)

    def wait(self, rnd: Round) -> Generator:
        yield rnd.release


class SoftwareAtomicBarrier(BarrierStrategy):
    """Lock-free software barrier: atomic counter + spin-polled flag.

    Every arrival is a serialized atomic RMW on the counter; the last
    arrival performs one more serialized atomic (the generation-flag
    write) and releases.  Waiters spin-read the flag, so on top of the
    release they pay a detection lag — the price of not having the
    cooperative launch's hardware broadcast.

    Without a ``channel`` the lag is the classic expected half poll period
    (``poll_ns / 2``, plus ``flag_rtt_ns`` of propagation for a remotely
    homed flag).  With a :class:`~repro.sim.memory.MemoryChannel` the poll
    reads are injected as load on that channel, so the lag is computed
    per wait from the *effective* poll period — it grows with spinner
    count and with concurrent workload traffic (Stuart & Owens's
    contention effect; see :meth:`detection_lag_ns`).

    The detection-lag timeout is constructed **per wait**: the lag is
    state-dependent under contention, and a fresh ``Timeout`` per waiter
    and round keeps every resume record independent (the shared-instance
    reuse the pre-contention code relied on is pinned safe only for the
    constant-lag path by the regression tests).
    """

    def __init__(
        self,
        expected: int,
        atomic_service_ns: float,
        poll_ns: float = 120.0,
        channel: Optional[MemoryChannel] = None,
        flag_rtt_ns: float = 0.0,
    ):
        super().__init__(expected)
        if atomic_service_ns < 0:
            raise ValueError("atomic_service_ns must be non-negative")
        if poll_ns <= 0:
            raise ValueError("poll_ns must be positive")
        if flag_rtt_ns < 0:
            raise ValueError("flag_rtt_ns must be non-negative")
        self.atomic_service_ns = float(atomic_service_ns)
        self.poll_ns = float(poll_ns)
        self.channel = channel
        self.flag_rtt_ns = float(flag_rtt_ns)
        self._counter_port: Optional[L2AtomicUnit] = None

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self._counter_port = L2AtomicUnit(
            engine, self.atomic_service_ns, name="swbarrier-counter"
        )

    def detection_lag_ns(self) -> float:
        """Expected spin-poll detection lag of one waiter, right now.

        * No channel: ``poll_ns / 2 + flag_rtt_ns`` — the historical
          constant (exactly ``poll_ns / 2`` for a locally homed flag).
        * With a channel: half the *effective* poll period (the spinners'
          own reads are offered load on the channel; once they exceed the
          capacity left over by workload traffic, the period is
          service-bound) plus one contention-stretched flag read round
          trip.  Monotone in ``expected`` and in the channel's
          ``workload_util`` — and bounded, because the channel rejects
          utilizations above its documented capacity floor
          (:data:`repro.sim.memory.MAX_WORKLOAD_UTIL`) where the
          ``1/(1-util)`` stretch would diverge into physically
          meaningless lags.
        """
        if self.channel is None:
            return self.poll_ns * 0.5 + self.flag_rtt_ns
        n_pollers = max(0, self.expected - 1)
        half_period = 0.5 * self.channel.effective_poll_ns(n_pollers, self.poll_ns)
        return half_period + self.channel.stretched_read_ns(self.flag_rtt_ns)

    def arrive(self, rnd: Round) -> Generator:
        yield from self._counter_port.atomic()
        if rnd.count + 1 == self.expected:
            # Last arrival: one more serialized atomic writes the
            # generation flag, then the release is visible.
            yield from self._counter_port.atomic()
        self._count_arrival(rnd, 0.0)

    def wait(self, rnd: Round) -> Generator:
        yield rnd.release
        if self.channel is not None:
            self.channel.detections += 1
            if _sanitize.MONITOR is not None:
                _sanitize.MONITOR.on_poll(self.channel, rnd)
        yield Timeout(self.detection_lag_ns())


class CpuBarrier(BarrierStrategy):
    """Host-side rendezvous (the ``#pragma omp barrier`` of Fig 6).

    ``cost_ns`` is the node-calibrated barrier cost
    (:meth:`~repro.sim.arch.NodeSpec.omp_barrier_ns`); the last arrival
    pays it as the release delay, exactly as the
    :class:`~repro.host.openmp.OmpTeam` rendezvous has always modeled it.
    """

    def __init__(self, expected: int, cost_ns: float):
        super().__init__(expected)
        if not 0.0 <= cost_ns < float("inf"):
            raise ValueError(f"cost_ns must be finite and non-negative, got {cost_ns!r}")
        self.cost_ns = float(cost_ns)

    def arrive(self, rnd: Round) -> Generator:
        self._count_arrival(rnd, self.cost_ns)
        return
        yield  # pragma: no cover - generator marker, never reached

    def wait(self, rnd: Round) -> Generator:
        yield rnd.release


#: Registry of strategy kinds for scenario knobs / CLI sweeps.
STRATEGY_KINDS = ("cooperative", "atomic", "cpu")
