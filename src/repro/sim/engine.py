"""Discrete-event simulation engine.

The engine is the foundation of the GPU model: every hardware agent (host
thread, stream dispatcher, SM scheduler, warp, barrier unit) is a *process* —
a Python generator driven by the engine.  Processes advance simulated time by
yielding *yieldables*:

``Timeout(delay)``
    Resume after ``delay`` simulated nanoseconds.
``WakeAt(time)``
    Resume at the absolute simulated time ``time``.
``Signal``
    A one-shot broadcast event; resume when somebody calls ``fire()``.
``AllOf([...])``
    Resume when every child signal has fired.
``Acquire`` (from :meth:`Resource.acquire`)
    Resume when a slot of the resource has been granted.

A process waits on time, a signal or a resource, never on another
process.  A process that raises aborts :meth:`Engine.run` with its own
exception.

Time is a float measured in **nanoseconds**.  Conversion between device
cycles and nanoseconds lives in :mod:`repro.sim.clock` so that V100 and P100
frequency domains can coexist on one timeline (needed for the multi-GPU
experiments where the host clock spans devices).

Scheduling fast path
--------------------
The event loop is the hot path of the entire reproduction, so the engine
keeps two queues:

* a **ready deque** of ``(seq, target, payload)`` records for zero-delay
  events (process resumes, signal fires) — amortized O(1) per event,
  no ``heapq`` traffic and no closure allocation;
* a **binary heap** of ``(time, seq, target, payload)`` records for events
  in the future.

Both share one monotonically increasing sequence counter, and the run loop
merges them by ``(time, seq)``, so FIFO ordering at equal timestamps is
*exactly* the ordering a single heap would produce.  ``docs/engine.md``
documents the invariants.

The oracle switch
-----------------
Several callers stand in for the event loop with an exact shortcut: the
analytic barrier ladders, the SM pipe folds and replays, the host-timeline
replay and the warp-reduce latency memo.  Each consults one predicate,
:func:`shortcuts_allowed`: the process-wide :data:`BACKEND` is ``"auto"``
and no sanitizer monitor is installed.  :func:`use_backend` sets the
choice around a block; ``"engine"`` turns every shortcut off, so the
events run everywhere and serve as the oracle the shortcuts are checked
against.

Deadlock detection
------------------
Section VIII-B of the paper observes real deadlocks when a *subset* of a grid
or multi-grid group calls ``sync()``.  We reproduce those experiments by
running them on the simulator and detecting quiescence: if the event queues
drain while processes are still blocked on signals, the engine raises
:class:`DeadlockError` naming every blocked process.  This is the simulated
analogue of the kernel hanging on real hardware.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from contextlib import contextmanager
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple, Optional

from repro.sanitize import events as _sanitize

__all__ = [
    "BACKEND_CHOICES",
    "shortcuts_allowed",
    "use_backend",
    "Engine",
    "Process",
    "Signal",
    "Timeout",
    "WakeAt",
    "AllOf",
    "Resource",
    "BlockedWaiter",
    "DeadlockError",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class BlockedWaiter(NamedTuple):
    """One blocked process at the moment the simulation quiesced.

    ``target`` is the actual yieldable the process was suspended on (a
    :class:`Signal`, acquire record, ...), so callers —
    the sanitizer's blame graph, partial-participation experiments — can
    group waiters by the object they hang on instead of parsing strings.
    """

    process: str
    wait_kind: str
    target_name: str
    target: Any

    def describe(self) -> str:
        return f"{self.process} blocked on {self.wait_kind} {self.target_name!r}"


class DeadlockError(SimulationError):
    """Raised when the event queues drain while processes remain blocked.

    Attributes
    ----------
    blocked:
        Names of the processes that were still waiting when the simulation
        quiesced.  The paper's partial-group sync experiments assert on this.
    waiters:
        Structured :class:`BlockedWaiter` records for the same processes
        (empty when the raiser had no live-process context, e.g. the
        ``run_process`` never-completed path).
    """

    def __init__(
        self,
        blocked: list[str],
        waiters: Optional[list["BlockedWaiter"]] = None,
    ):
        self.blocked = list(blocked)
        self.waiters: list[BlockedWaiter] = list(waiters) if waiters else []
        preview = ", ".join(self.blocked[:8])
        if len(self.blocked) > 8:
            preview += f", ... ({len(self.blocked)} total)"
        super().__init__(f"simulation deadlocked; blocked processes: [{preview}]")


class Timeout:
    """Yieldable that resumes the process after ``delay`` nanoseconds.

    ``value`` is delivered back to the generator (defaults to ``None``).
    Negative, infinite and NaN delays are rejected: simulated hardware
    cannot travel back in time, and silently clamping hides cost-model
    bugs.

    Instances are immutable, so hot loops may allocate one ``Timeout`` and
    yield it repeatedly.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"Timeout delay must be finite and >= 0, got {delay!r}")
        self.delay = delay if delay.__class__ is float else float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class WakeAt:
    """Yieldable that resumes the process at an *absolute* engine time.

    ``time`` must be finite and not in the past.  Needed where a process has
    accumulated a future timestamp lane-locally (the SIMT fast path's
    staggered divergence regions sum ``t = t + delay`` per lane) and must
    land on it *bit-exactly*: a relative ``Timeout(t - now)`` cannot
    guarantee ``now + (t - now) == t`` in floats, and a one-ulp slip on a
    rendezvous timestamp would break the fast path's bit-identical
    equivalence contract.
    """

    __slots__ = ("time", "value")

    def __init__(self, time: float, value: Any = None):
        self.time = time if time.__class__ is float else float(time)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WakeAt({self.time!r})"


class Signal:
    """One-shot broadcast event.

    Any number of processes may wait on a signal; ``fire(value)`` wakes all of
    them with ``value``.  Firing twice is an error (one-shot semantics keep
    barrier protocols honest).  A signal may be fired before anyone waits; a
    later wait completes immediately.
    """

    __slots__ = ("engine", "name", "fired", "value", "_waiters", "callbacks")

    def __init__(self, engine: "Engine", name: str = "signal"):
        self.engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Process] = []
        self.callbacks: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking every waiter at the current time."""
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_signal_fire(self, self.engine.now)
        self.fired = True
        self.value = value
        for cb in self.callbacks:
            cb(value)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            ready = self.engine._ready
            seq = self.engine._seq
            for proc in waiters:
                ready.append((next(seq), proc, value))

    def _subscribe(self, proc: "Process") -> bool:
        """Register ``proc`` as a waiter.

        Returns ``True`` if the signal already fired (the caller should
        resume immediately instead of blocking).
        """
        if self.fired:
            return True
        self._waiters.append(proc)
        return False

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"Signal({self.name!r}, {state})"


class AllOf:
    """Yieldable that completes when every child :class:`Signal` has fired.

    The delivered value is the list of the signals' values in order.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)


class _Acquire:
    """Yieldable produced by :meth:`Resource.acquire`.

    One immutable instance per resource: the grant decision happens when the
    yieldable is dispatched, so ``yield resource.acquire()`` allocates
    nothing on the hot path.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource


class Resource:
    """Counted FIFO resource (e.g. an SM barrier unit or an atomic port).

    ``capacity`` slots are granted in request order.  A holder releases with
    :meth:`release`.  The common pattern inside a process::

        grant = yield resource.acquire()
        yield Timeout(service_time)
        resource.release()

    Waiters queue on a :class:`collections.deque` of process records, so
    both grant and release are O(1) (the seed implementation popped a
    Python list and allocated a fresh signal per acquire).
    """

    __slots__ = ("engine", "capacity", "name", "_in_use", "_waiters", "_acquire")

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("Resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Process] = deque()
        self._acquire = _Acquire(self)

    def acquire(self) -> _Acquire:
        """Return a yieldable that completes when a slot is granted."""
        return self._acquire

    def release(self) -> None:
        """Release one slot, granting it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot straight to the next waiter: _in_use unchanged.
            self.engine._schedule_resume(self._waiters.popleft(), None)
        else:
            self._in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def in_use(self) -> int:
        return self._in_use


class Process:
    """A simulated agent: a generator driven by the engine.

    The generator's ``return`` value becomes :attr:`result`, readable after
    :meth:`Engine.run` completes.  If the generator raises, the process
    records :attr:`error`, stops being live, and the exception aborts
    :meth:`Engine.run`; the engine can be run again.
    """

    __slots__ = ("engine", "name", "gen", "done", "result", "error", "_waiting_on")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "proc"):
        self.engine = engine
        self.name = name
        self.gen = gen
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._waiting_on: Any = None

    # -- driving ---------------------------------------------------------

    def _step(self, send_value: Any) -> None:
        """Advance the generator by one yield, interpreting the yieldable."""
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # aborts the run loop
            self.error = exc
            self._finish(None)
            raise
        # Timeout is by far the hottest yieldable: inline it.  A pending
        # timeout can never appear in a deadlock report (the queues are
        # not empty), so _waiting_on is not updated on this path.
        if yielded.__class__ is Timeout:
            engine = self.engine
            delay = yielded.delay
            if delay == 0.0:
                engine._ready.append((next(engine._seq), self, yielded.value))
            else:
                _heappush(
                    engine._heap,
                    (engine.now + delay, next(engine._seq), self, yielded.value),
                )
        else:
            self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        engine = self.engine
        self._waiting_on = yielded
        cls = yielded.__class__
        if cls is Signal:
            if yielded._subscribe(self):
                engine._schedule_resume(self, yielded.value)
        elif cls is _Acquire:
            res = yielded.resource
            if res._in_use < res.capacity:
                res._in_use += 1
                engine._schedule_resume(self, None)
            else:
                res._waiters.append(self)
        elif cls is AllOf:
            self._wait_all(yielded)
        elif cls is WakeAt:
            if not engine.now <= yielded.time < math.inf:
                raise SimulationError(
                    f"process {self.name!r} yielded WakeAt({yielded.time!r}): "
                    f"time must be finite and not in the past (now={engine.now!r})"
                )
            _heappush(
                engine._heap,
                (yielded.time, next(engine._seq), self, yielded.value),
            )
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported object {yielded!r}"
            )

    def _wait_all(self, allof: AllOf) -> None:
        engine = self.engine
        children = allof.children
        for child in children:
            if not isinstance(child, Signal):
                raise SimulationError(f"AllOf child unsupported: {child!r}")
        if not children:
            engine._schedule_resume(self, [])
            return
        values: list[Any] = [None] * len(children)
        remaining = len(children)

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                nonlocal remaining
                values[i] = value
                remaining -= 1
                if remaining == 0:
                    engine._schedule_resume(self, values)

            return cb

        for i, child in enumerate(children):
            if child.fired:
                make_cb(i)(child.value)
            else:
                child.callbacks.append(make_cb(i))

    def _finish(self, value: Any) -> None:
        self.done = True
        self.result = value
        self._waiting_on = None
        self.engine._live.discard(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else _describe_wait(self._waiting_on)
        return f"Process({self.name!r}, {state})"


def _describe_wait(waiting_on: Any) -> str:
    """Human-readable description of what a process is blocked on.

    The hot path stores the yieldable object itself (no f-string per
    dispatch); this formats it lazily for deadlock reports and ``repr``.
    """
    if waiting_on is None:
        return "ready"
    if isinstance(waiting_on, Timeout):
        return f"timeout({waiting_on.delay})"
    if isinstance(waiting_on, Signal):
        return f"signal({waiting_on.name})"
    if isinstance(waiting_on, _Acquire):
        return f"acquire({waiting_on.resource.name})"
    if isinstance(waiting_on, AllOf):
        return f"allof({len(waiting_on.children)})"
    return repr(waiting_on)


def _wait_kind(waiting_on: Any) -> tuple[str, str]:
    """(kind, target-name) pair for structured deadlock reports."""
    if waiting_on is None:
        return "ready", ""
    if isinstance(waiting_on, Signal):
        return "signal", waiting_on.name
    if isinstance(waiting_on, _Acquire):
        return "acquire", waiting_on.resource.name
    if isinstance(waiting_on, AllOf):
        return "allof", f"{len(waiting_on.children)} children"
    if isinstance(waiting_on, (Timeout, WakeAt)):
        return "timeout", repr(waiting_on)
    return "other", repr(waiting_on)


class Engine:
    """Ready-queue + heap scheduled discrete-event simulator.

    Zero-delay events (the dominant class: every process resume) go on a
    FIFO deque; future events go on a binary heap.  A shared sequence
    counter lets the run loop merge both queues with exact FIFO-at-equal-
    time semantics.  Events are ``(target, payload)`` records — a
    :class:`Process` to resume or a :class:`Signal` to fire — so the loop
    allocates no closures.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._ready: deque[tuple[int, Any, Any]] = deque()
        self._seq = itertools.count()
        self._live: set[Process] = set()
        self.event_count = 0

    # -- scheduling ------------------------------------------------------

    def schedule_fire(self, delay: float, signal: Signal, value: Any = None) -> None:
        """Fire ``signal(value)`` after ``delay`` ns (FIFO at equal times).

        The one deferred event that is not a process resume: barrier
        protocols release their waiters with it, and the record is
        dispatched straight from the run loop.
        """
        if not 0.0 <= delay < math.inf:
            raise ValueError(
                f"schedule_fire delay must be finite and >= 0, got {delay!r}"
            )
        if delay == 0.0:
            self._ready.append((next(self._seq), signal, value))
        else:
            heapq.heappush(
                self._heap, (self.now + delay, next(self._seq), signal, value)
            )

    def _schedule_resume(self, proc: Process, value: Any) -> None:
        self._ready.append((next(self._seq), proc, value))

    def signal(self, name: str = "signal") -> Signal:
        """Create a new :class:`Signal` bound to this engine."""
        return Signal(self, name=name)

    def resource(self, capacity: int = 1, name: str = "resource") -> Resource:
        """Create a new :class:`Resource` bound to this engine."""
        return Resource(self, capacity=capacity, name=name)

    def process(self, gen: Generator, name: str = "proc") -> Process:
        """Register ``gen`` as a process and schedule its first step now."""
        proc = Process(self, gen, name=name)
        self._live.add(proc)
        self._ready.append((next(self._seq), proc, None))
        return proc

    def process_now(self, gen: Generator, name: str = "proc") -> Process:
        """Register ``gen`` as a process and run its first step inside the
        current event.

        :meth:`process` queues the first step behind every event already
        due at this timestamp; here it runs before this call returns, as
        part of the caller's step.  A process that has been standing in
        for others (the SIMT warp scheduler for its lanes) hands them off
        this way without reordering them against other processes'
        equal-time events.
        """
        proc = Process(self, gen, name=name)
        self._live.add(proc)
        proc._step(None)
        return proc

    # -- execution -------------------------------------------------------

    def run(self) -> float:
        """Drain the event queues and return the simulated time.

        When the queues drain with live processes still blocked, raise
        :class:`DeadlockError` naming them (the Section VIII-B behaviour).
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        now = self.now
        count = 0
        try:
            while True:
                # Merge the two queues by (time, seq): a heap event belongs
                # before the ready head only if it is at the *current* time
                # and was scheduled earlier.
                if ready:
                    if heap:
                        head = heap[0]
                        use_heap = head[0] <= now and head[1] < ready[0][0]
                    else:
                        use_heap = False
                elif heap:
                    use_heap = True
                else:
                    break
                if use_heap:
                    now, _seq, target, payload = heappop(heap)
                    self.now = now
                else:
                    _seq, target, payload = ready.popleft()
                count += 1
                if target.__class__ is Process:
                    target._step(payload)
                else:
                    target.fire(payload)
        finally:
            self.event_count += count
        if self._live:
            waiters = sorted(
                (
                    BlockedWaiter(p.name, *_wait_kind(p._waiting_on), p._waiting_on)
                    for p in self._live
                ),
                key=lambda w: (w.process, w.wait_kind, w.target_name),
            )
            if _sanitize.MONITOR is not None:
                _sanitize.MONITOR.on_deadlock(waiters, self.now)
            blocked = sorted(
                f"{p.name} waiting on {_describe_wait(p._waiting_on)}"
                for p in self._live
            )
            raise DeadlockError(blocked, waiters=waiters)
        return self.now

    def run_process(self, gen: Generator, name: str = "main") -> Any:
        """Convenience: register ``gen``, run to quiescence, return result.

        A raising process aborts :meth:`run` with its own exception; a
        system that hangs before ``gen`` finishes raises
        :class:`DeadlockError`.
        """
        proc = self.process(gen, name=name)
        self.run()
        if not proc.done:
            raise DeadlockError([f"{name} never completed"])
        return proc.result

    @property
    def pending_count(self) -> int:
        """Events waiting in either queue (ready deque + heap)."""
        return len(self._ready) + len(self._heap)

    @property
    def live_processes(self) -> list[Process]:
        """Processes that have been started but not yet finished."""
        return list(self._live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self.now:.1f}ns, pending={self.pending_count}, "
            f"live={len(self._live)})"
        )


# -- the oracle switch ----------------------------------------------------------

#: Names the backend choice accepts.
BACKEND_CHOICES: tuple[str, ...] = ("engine", "auto")

#: The process-wide backend choice: ``"auto"`` lets the exact shortcuts
#: stand in for the event loop, ``"engine"`` turns every one of them off.
#: Set it with :func:`use_backend`.
BACKEND = "auto"


def shortcuts_allowed() -> bool:
    """Whether an exact shortcut may stand in for the event loop: the
    backend is ``"auto"`` and no sanitizer monitor is installed (a monitor
    records only what the event path does)."""
    return BACKEND == "auto" and _sanitize.MONITOR is None


@contextmanager
def use_backend(choice: str) -> Iterator[None]:
    """Run the ``with`` block under backend ``choice``, then restore the
    previous choice, also when the block raises."""
    global BACKEND
    if choice not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {choice!r}; available: {', '.join(BACKEND_CHOICES)}"
        )
    previous = BACKEND
    BACKEND = choice
    try:
        yield
    finally:
        BACKEND = previous
