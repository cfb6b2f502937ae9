"""The sync-event stream: what the dynamic sanitizer observes.

This module is the *instrumentation side* of ``repro.sanitize`` — the
hook surface the engine, the sync scopes/strategies and the shared-memory
model call into.  It deliberately imports **nothing from the rest of the
package tree** (stdlib only): the engine's ``Signal.fire`` is the hottest
call site in the whole reproduction, so the hook must be importable from
:mod:`repro.sim.engine` without creating a cycle, and must cost exactly
one module-attribute load plus an ``is None`` test when disabled — the
same zero-cost-when-off pattern :mod:`repro.experiments.faults` pins for
the fault-injection hooks.

Call sites therefore look like::

    from repro.sanitize import events as _sanitize
    ...
    if _sanitize.MONITOR is not None:
        _sanitize.MONITOR.on_arrive(self, member, round_index, now)

``MONITOR`` is ``None`` unless a :class:`~repro.sanitize.checker.
SanitizerSession` (or a test) installed a :class:`SyncMonitor`.  The
monitor only *records*; all judgement lives in
:mod:`repro.sanitize.checker` and :mod:`repro.sanitize.hb`.

Event kinds (the stream schema, documented in ``docs/sanitize.md``):

=============== =====================================================
kind            meaning
=============== =====================================================
``scope``       a barrier scope was registered (size, members, names)
``round``       a scope lazily created round state (release signal)
``arrive``      a member entered ``arrive(member, round)``
``wait``        a member entered ``wait(member, round)``
``wait_return`` a member's ``wait`` completed (it observed the release)
``release``     the last counted arrival scheduled the round's release
``signal``      any engine :class:`~repro.sim.engine.Signal` fired
``poll``        a software-barrier waiter charged a spin-poll detection
``store``       a :class:`~repro.sim.memory.SharedMemory` store
``load``        a :class:`~repro.sim.memory.SharedMemory` load
``commit``      a shared-memory commit (barrier/fence visibility point)
``deadlock``    the engine quiesced with live blocked processes
=============== =====================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "EVENT_KINDS",
    "SyncEvent",
    "ScopeInfo",
    "SyncMonitor",
    "MONITOR",
    "install",
    "uninstall",
    "current_monitor",
]

EVENT_KINDS = (
    "scope",
    "round",
    "arrive",
    "wait",
    "wait_return",
    "release",
    "signal",
    "poll",
    "store",
    "load",
    "commit",
    "deadlock",
)

#: Hard cap on recorded events.  A runaway workload must not OOM the
#: sanitizer; past the cap events are counted in ``dropped`` (and the
#: checker reports the truncation) instead of being appended.
DEFAULT_MAX_EVENTS = 1_000_000


class SyncEvent:
    """One record of the sync-event stream (plain data, ``to_dict``-able)."""

    __slots__ = ("kind", "time", "scope", "member", "round", "actor", "addr", "data")

    def __init__(
        self,
        kind: str,
        time: Optional[float] = None,
        scope: Optional[int] = None,
        member: Optional[int] = None,
        round: Optional[int] = None,
        actor: Optional[int] = None,
        addr: Optional[int] = None,
        data: Any = None,
    ):
        self.kind = kind
        self.time = time
        self.scope = scope
        self.member = member
        self.round = round
        self.actor = actor
        self.addr = addr
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form; ``None`` fields are omitted (compact stream)."""
        out: Dict[str, Any] = {"kind": self.kind}
        for name in ("time", "scope", "member", "round", "actor", "addr", "data"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{k}={getattr(self, k)!r}"
            for k in self.__slots__
            if getattr(self, k) is not None and k != "kind"
        )
        return f"SyncEvent({self.kind!r}, {parts})"


class ScopeInfo:
    """Registration record of one barrier scope.

    ``members`` is the scope's full membership universe (``gpu_ids`` for a
    multi-grid group, ``range(size)`` otherwise) — the set a round must
    collect for the divergence check to call it complete.
    """

    __slots__ = ("scope_id", "kind", "size", "members", "release_name")

    def __init__(
        self,
        scope_id: int,
        kind: str,
        size: int,
        members: Tuple[int, ...],
        release_name: str,
    ):
        self.scope_id = scope_id
        self.kind = kind
        self.size = size
        self.members = members
        self.release_name = release_name

    def label(self) -> str:
        """Human-readable scope name for diagnostics."""
        return f"{self.kind}#{self.scope_id}({self.release_name})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scope_id": self.scope_id,
            "kind": self.kind,
            "size": self.size,
            "members": list(self.members),
            "release_name": self.release_name,
        }


class SyncMonitor:
    """Collects the structured sync-event stream.

    The monitor is installed globally (:func:`install`) for the duration
    of a sanitized run; every hook resolves object identities to stable
    small integers (scope ids, memory ids) so the recorded stream is plain
    data the happens-before analysis can replay.  The monitor holds each
    numbered object until it is dropped, so within one session no two
    objects ever share an id.

    ``capture_memory`` gates the per-access shared-memory hooks — the
    ``synccheck`` mode leaves them off so barrier-protocol checking does
    not pay a per-load/store recording cost.
    """

    def __init__(
        self,
        capture_memory: bool = True,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.capture_memory = capture_memory
        self.max_events = max_events
        self.events: List[SyncEvent] = []
        self.dropped = 0
        self.scopes: Dict[int, ScopeInfo] = {}
        #: Every object whose ``id()`` is recorded below, held so that no
        #: later object can reuse its address and inherit its identity.
        self._pinned: List[Any] = []
        #: id(scope object) -> scope_id.
        self._scope_ids: Dict[int, int] = {}
        #: id(release Signal) -> (scope_id, round_index), for blame mapping.
        self._round_signals: Dict[int, Tuple[int, int]] = {}
        #: id(SharedMemory) -> memory_id.
        self._mem_ids: Dict[int, int] = {}
        #: The engine's ``BlockedWaiter`` records, one list per quiescence.
        #: Each record holds its target, so no later object takes its id.
        self.deadlocks: List[List[Any]] = []

    # -- recording core --------------------------------------------------

    def _emit(self, event: SyncEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def events_of(self, *kinds: str) -> List[SyncEvent]:
        """The recorded events restricted to ``kinds`` (stream order)."""
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    # -- identity --------------------------------------------------------

    def scope_id(self, scope: Any) -> int:
        """Stable small id of a scope, registering it on first sight."""
        sid = self._scope_ids.get(id(scope))
        if sid is None:
            sid = self.register_scope(scope)
        return sid

    def register_scope(self, scope: Any) -> int:
        """Record a scope's registration event and return its id.

        Duck-typed on purpose: ``events`` must not import the sync
        package.  Membership prefers ``gpu_ids`` (multi-grid groups name
        their members by GPU index) and falls back to ``range(size)``.
        """
        existing = self._scope_ids.get(id(scope))
        if existing is not None:
            return existing
        sid = len(self.scopes)
        self._scope_ids[id(scope)] = sid
        self._pinned.append(scope)
        try:
            size = int(scope.size)
        except (AttributeError, NotImplementedError):
            size = 0
        gpu_ids = getattr(scope, "gpu_ids", None)
        members = tuple(gpu_ids) if gpu_ids is not None else tuple(range(size))
        info = ScopeInfo(
            scope_id=sid,
            kind=type(scope).__name__,
            size=size,
            members=members,
            release_name=getattr(scope, "release_name", "scope-release"),
        )
        self.scopes[sid] = info
        self._emit(SyncEvent("scope", scope=sid, data=info.to_dict()))
        return sid

    def _mem_id(self, mem: Any) -> int:
        mid = self._mem_ids.get(id(mem))
        if mid is None:
            mid = len(self._mem_ids)
            self._mem_ids[id(mem)] = mid
            self._pinned.append(mem)
        return mid

    def round_of_signal(self, signal_id: int) -> Optional[Tuple[int, int]]:
        """Map a release signal's object id back to (scope_id, round)."""
        return self._round_signals.get(signal_id)

    # -- scope/strategy hooks --------------------------------------------

    def on_round(self, scope: Any, rnd: Any) -> None:
        """A scope lazily created ``rnd`` (its release signal now exists)."""
        sid = self.scope_id(scope)
        self._round_signals[id(rnd.release)] = (sid, rnd.index)
        self._pinned.append(rnd.release)
        self._emit(
            SyncEvent("round", scope=sid, round=rnd.index, data=rnd.release.name)
        )

    def on_arrive(self, scope: Any, member: int, round_index: int, now: float) -> None:
        self._emit(
            SyncEvent(
                "arrive", time=now, scope=self.scope_id(scope),
                member=member, round=round_index,
            )
        )

    def on_wait(self, scope: Any, member: int, round_index: int, now: float) -> None:
        self._emit(
            SyncEvent(
                "wait", time=now, scope=self.scope_id(scope),
                member=member, round=round_index,
            )
        )

    def on_wait_return(
        self, scope: Any, member: int, round_index: int, now: float
    ) -> None:
        self._emit(
            SyncEvent(
                "wait_return", time=now, scope=self.scope_id(scope),
                member=member, round=round_index,
            )
        )

    def on_release(self, rnd: Any, now: float, delay_ns: float) -> None:
        """The last counted arrival scheduled ``rnd``'s release."""
        where = self._round_signals.get(id(rnd.release))
        scope, index = where if where is not None else (None, rnd.index)
        self._emit(
            SyncEvent(
                "release", time=now, scope=scope, round=index,
                data={"count": rnd.count, "delay_ns": delay_ns},
            )
        )

    def on_poll(self, channel: Any, rnd: Any) -> None:
        """A software-barrier waiter charged one spin-poll detection lag."""
        where = self._round_signals.get(id(rnd.release))
        scope, index = where if where is not None else (None, rnd.index)
        self._emit(
            SyncEvent(
                "poll", scope=scope, round=index,
                data=getattr(channel, "name", "channel"),
            )
        )

    # -- engine hooks ----------------------------------------------------

    def on_signal_fire(self, signal: Any, now: float) -> None:
        self._emit(SyncEvent("signal", time=now, data=signal.name))

    def on_deadlock(self, waiters: List[Any], now: float) -> None:
        """The engine quiesced with processes still blocked.

        ``waiters`` are the sorted ``BlockedWaiter`` records the engine
        attaches to its ``DeadlockError``.
        """
        self.deadlocks.append(waiters)
        self._emit(
            SyncEvent(
                "deadlock", time=now,
                data=[[w.process, w.wait_kind, w.target_name] for w in waiters],
            )
        )

    # -- memory hooks ----------------------------------------------------

    def on_mem_access(
        self, mem: Any, thread: int, slot: int, is_store: bool, volatile: bool
    ) -> None:
        self._emit(
            SyncEvent(
                "store" if is_store else "load",
                actor=thread, addr=slot,
                scope=None, member=None, round=None,
                data={"mem": self._mem_id(mem), "volatile": volatile},
            )
        )

    def on_mem_commit(self, mem: Any, thread: Optional[int] = None) -> None:
        self._emit(
            SyncEvent(
                "commit", actor=thread,
                data={"mem": self._mem_id(mem)},
            )
        )


#: The installed monitor, or ``None`` (the common case).  Instrumented
#: call sites read this module attribute directly; anything else (a
#: property, a function call) would put real work on the engine hot path.
MONITOR: Optional[SyncMonitor] = None


def install(monitor: SyncMonitor) -> SyncMonitor:
    """Install ``monitor`` as the process-global event sink."""
    global MONITOR
    MONITOR = monitor
    return monitor


def uninstall() -> None:
    """Remove the installed monitor (hooks go back to zero-cost)."""
    global MONITOR
    MONITOR = None


def current_monitor() -> Optional[SyncMonitor]:
    """The installed monitor, if any (test/driver convenience)."""
    return MONITOR
