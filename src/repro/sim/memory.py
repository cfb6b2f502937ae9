"""Memory system models: shared memory, L2 atomics, HBM.

Three distinct concerns live here:

* **Functional state** — :class:`SharedMemory` holds real numpy data so
  the reduction case study computes *actual sums* and the no-sync race
  produces *actually wrong* answers.
* **Visibility semantics** — :class:`SharedMemory` implements the
  pending/committed model the paper's Table V hinges on: a plain store is
  not visible to *other* threads until a synchronization (or the program
  declared the buffer ``volatile``); reading another thread's uncommitted
  slot yields the stale committed value and records a race.
* **Timing** — :class:`L2AtomicUnit` (serialized atomic port used by the
  grid barrier protocol), :class:`HBM` (streaming bandwidth model used
  by the reduction experiments) and :class:`MemoryChannel` (shared
  bandwidth carrying spin-poll flag reads *and* workload traffic, the
  contention behind the software barrier's detection lag) turn byte
  counts into nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.sanitize import events as _sanitize
from repro.sim.arch import HBMCalib
from repro.sim.engine import Engine, Resource, Timeout

__all__ = [
    "SharedMemory",
    "L2AtomicUnit",
    "HBM",
    "MemoryChannel",
    "MAX_WORKLOAD_UTIL",
    "RaceRecord",
]

#: Capacity floor of a :class:`MemoryChannel`: workload traffic may consume
#: at most this fraction of the channel, leaving ``1 - MAX_WORKLOAD_UTIL``
#: of residual capacity for the spin-poll flag reads.  The detection-lag
#: model scales as ``1 / (1 - workload_util)``, so utilizations approaching
#: 1 produce arbitrarily large, physically meaningless lags (a channel
#: 99.9% busy with workload traffic is not a barrier-contention regime —
#: it is a saturated link the analytic M/D/1-style aggregate no longer
#: describes).  Rather than silently returning absurd numbers, utilization
#: above the floor is rejected loudly at injection time.
MAX_WORKLOAD_UTIL = 0.95


@dataclass(frozen=True)
class RaceRecord:
    """One detected read of a not-yet-visible shared-memory slot."""

    reader: int
    writer: int
    slot: int
    step: Optional[int] = None


class SharedMemory:
    """Shared memory of one block with CUDA visibility semantics.

    The model distinguishes a *committed* array (what other threads see)
    from *pending* writes (visible only to the writing thread).  A barrier
    or fence commits all pending writes; ``volatile`` accesses bypass the
    pending buffer entirely — exactly the mechanism by which the paper's
    ``volatile``-qualified reduction is correct without explicit sync while
    the plain no-sync variant is not (Table V).
    """

    def __init__(self, slots: int, dtype=np.float64):
        if slots <= 0:
            raise ValueError("shared memory must have at least one slot")
        self.slots = slots
        self.committed = np.zeros(slots, dtype=dtype)
        self.pending = np.zeros(slots, dtype=dtype)
        self.pending_owner = np.full(slots, -1, dtype=np.int64)
        self.races: List[RaceRecord] = []

    # -- stores ----------------------------------------------------------

    def store(self, thread: int, slot: int, value: float, volatile: bool = False) -> None:
        """Write ``value``; plain writes stay pending for other threads."""
        self._check_slot(slot)
        mon = _sanitize.MONITOR
        if mon is not None and mon.capture_memory:
            mon.on_mem_access(self, thread, slot, is_store=True, volatile=volatile)
        if volatile:
            self.committed[slot] = value
            self.pending_owner[slot] = -1
        else:
            self.pending[slot] = value
            self.pending_owner[slot] = thread

    # -- loads -----------------------------------------------------------

    def load(
        self,
        thread: int,
        slot: int,
        volatile: bool = False,
        step: Optional[int] = None,
    ) -> float:
        """Read a slot under the visibility rules.

        A plain read of another thread's pending write returns the stale
        committed value and records a :class:`RaceRecord` — the simulated
        analogue of the compiler/hardware keeping the value in a register.
        """
        self._check_slot(slot)
        mon = _sanitize.MONITOR
        if mon is not None and mon.capture_memory:
            mon.on_mem_access(self, thread, slot, is_store=False, volatile=volatile)
        owner = int(self.pending_owner[slot])
        if owner == -1:
            return float(self.committed[slot])
        if owner == thread or volatile:
            # Own writes are always visible to self; volatile reads snoop
            # the latest value regardless of commit state.
            return float(self.pending[slot])
        self.races.append(RaceRecord(reader=thread, writer=owner, slot=slot, step=step))
        return float(self.committed[slot])

    # -- synchronization -------------------------------------------------

    def commit(self) -> int:
        """Commit all pending writes (the effect of any barrier/fence).

        Returns the number of slots committed.
        """
        mon = _sanitize.MONITOR
        if mon is not None and mon.capture_memory:
            mon.on_mem_commit(self)
        mask = self.pending_owner >= 0
        n = int(mask.sum())
        if n:
            self.committed[mask] = self.pending[mask]
            self.pending_owner[mask] = -1
        return n

    def commit_thread(self, thread: int) -> int:
        """Commit only one thread's pending writes (per-thread fence)."""
        mon = _sanitize.MONITOR
        if mon is not None and mon.capture_memory:
            mon.on_mem_commit(self, thread=thread)
        mask = self.pending_owner == thread
        n = int(mask.sum())
        if n:
            self.committed[mask] = self.pending[mask]
            self.pending_owner[mask] = -1
        return n

    @property
    def race_detected(self) -> bool:
        return bool(self.races)

    def _check_slot(self, slot: int) -> None:
        if not (0 <= slot < self.slots):
            raise IndexError(f"shared memory slot {slot} out of range [0,{self.slots})")


class L2AtomicUnit:
    """Serialized atomic port at the L2 cache.

    The grid barrier's per-block ``atomicAdd`` on the arrival counter is
    serviced here; serialization across all arriving blocks is what makes
    grid-sync latency scale with *total block count* (paper Fig 5 — latency
    tracks blocks/SM, weakly threads/block).
    """

    def __init__(self, engine: Engine, service_ns: float, name: str = "l2-atomic"):
        if service_ns < 0:
            raise ValueError("service_ns must be non-negative")
        self.engine = engine
        self.service_ns = float(service_ns)
        self.port = Resource(engine, capacity=1, name=name)
        self._service = Timeout(self.service_ns)
        self.ops = 0

    def atomic(self):
        """Process helper: perform one serialized atomic op.

        Usage inside a process::

            yield from l2.atomic()
        """
        yield self.port.acquire()
        yield self._service
        self.ops += 1
        self.port.release()


class MemoryChannel:
    """Shared memory channel carrying spin-poll flag reads plus workload traffic.

    The software atomic barrier's waiters spin-read a release flag; those
    reads are not free — they occupy the same memory channel (L2 port for a
    grid, interconnect link for a multi-grid) as the workload's own traffic,
    which is the contention effect Stuart & Owens measure for GPU
    synchronization primitives.  The channel is an *analytic* aggregate, not
    a DES resource: each of ``n_pollers`` spinners issues one flag read
    every ``poll_ns`` that occupies the channel for ``read_ns``, and a
    fraction ``workload_util`` of the channel is already busy with workload
    traffic.  Once the offered poll traffic exceeds what the residual
    capacity can carry, the effective poll period is service-bound::

        effective_poll_ns = max(poll_ns, n_pollers * read_ns / (1 - workload_util))

    and every individual read is stretched by the workload share
    (``read_ns / (1 - workload_util)``).  Both terms are deterministic and
    monotone in ``n_pollers`` and ``workload_util``, so detection lag grows
    with participant count and with injected workload traffic — the physics
    the fixed ``poll_ns / 2`` constant ignored.
    """

    def __init__(self, read_ns: float, workload_util: float = 0.0, name: str = "mem-channel"):
        if read_ns < 0:
            raise ValueError("read_ns must be non-negative")
        self.name = name
        self.read_ns = float(read_ns)
        self.workload_util = 0.0
        self.inject_workload(workload_util)
        #: Detection-lag computations served (one per waiter-round).
        self.detections = 0

    def inject_workload(self, util: float) -> None:
        """Set the fraction of channel capacity consumed by workload traffic.

        Utilization is capped at :data:`MAX_WORKLOAD_UTIL`: the lag model
        diverges as ``util -> 1``, so near-saturation values produce
        nonsense (``0.999`` would stretch every flag read 1000x).  Both
        violations raise ``ValueError`` naming the knob and the bound.
        """
        if not (0.0 <= util <= MAX_WORKLOAD_UTIL):
            raise ValueError(
                f"workload_util must be in [0, {MAX_WORKLOAD_UTIL}], got "
                f"{util!r}: above the channel capacity floor the contention "
                f"model's 1/(1-util) detection-lag stretch is physically "
                f"meaningless (saturated link, not a barrier-contention "
                f"regime) — lower the injected workload traffic (e.g. the "
                f"extra.workload_util scenario knob) to "
                f"{MAX_WORKLOAD_UTIL} or below"
            )
        self.workload_util = float(util)

    def effective_poll_ns(self, n_pollers: int, poll_ns: float) -> float:
        """Realized poll period once the pollers share the residual capacity."""
        if n_pollers < 0:
            raise ValueError("n_pollers must be non-negative")
        if poll_ns <= 0:
            raise ValueError("poll_ns must be positive")
        capacity = 1.0 - self.workload_util
        return max(float(poll_ns), n_pollers * self.read_ns / capacity)

    def stretched_read_ns(self, extra_ns: float = 0.0) -> float:
        """One flag read (plus ``extra_ns`` of propagation) under contention."""
        return (self.read_ns + extra_ns) / (1.0 - self.workload_util)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryChannel({self.name!r}, read_ns={self.read_ns}, "
            f"workload_util={self.workload_util})"
        )


class HBM:
    """Device-memory streaming model.

    Timing is analytic — ``bytes / effective_bandwidth`` — because the
    reduction workloads stream gigabytes and the paper itself models them
    as bandwidth-bound (Section VII-B).  Method-specific efficiencies come
    from the :class:`~repro.sim.arch.HBMCalib` block (Table VI).
    """

    def __init__(self, calib: HBMCalib):
        self.calib = calib

    def transfer_ns(self, nbytes: int, method: str = "implicit") -> float:
        """Time to stream ``nbytes`` under ``method``'s access pattern."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        gbps = self.calib.effective_gbps(method)
        return nbytes / gbps  # GB/s == bytes/ns

    def effective_gbps(self, method: str = "implicit") -> float:
        return self.calib.effective_gbps(method)

    @property
    def theory_gbps(self) -> float:
        return self.calib.theory_gbps
