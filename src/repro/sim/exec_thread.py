"""Thread-precise warp executor.

Simulates the 32 threads of a single warp individually, which is required
wherever the paper's observations depend on *intra-warp* behaviour:

* Table II warp-sync latencies (tile / coalesced / shuffle),
* Table V warp-level reduction timing,
* Figure 18 — whether a warp barrier actually blocks threads
  (Volta: yes, per-thread program counters; Pascal: no — Section VIII-A).

Each thread is an engine process executing a generator *program* that
yields :mod:`repro.cudasim.instructions` objects.  Issue is serialized
through a per-warp port (SIMT front-end); latencies overlap across threads.
Divergent branch arms (:class:`~repro.cudasim.instructions.Diverge`) hold
the issue port for the architecture's full arm cost, producing the paper's
staircase timing.

Warp syncs, shuffles and ``__syncthreads`` count arrivals on one kind of
round-keyed board, so a program can sync in a loop: a thread's n-th
arrival joins round n.  Warp syncs and shuffles keep a board per group of
lanes; ``__syncthreads`` counts on the :class:`BlockBarrier`'s board over
the block's threads, and a lone warp is a one-warp block with a barrier of
its own.  On Pascal a warp rendezvous is bypassed entirely — the
instruction costs one cycle, commits the thread's pending shared-memory
writes (a fence, per Section VII-C) and does not wait.

Converged-warp fast path and re-convergence
-------------------------------------------
Real SIMT hardware issues one instruction for all 32 lanes of a converged
warp; simulating 32 engine processes for that case multiplies every event
by the warp width for no modelling benefit.  When ``simt_fast_path`` is on
(the default) the executor drives the whole warp as *one* engine process —
a mode-switching warp scheduler — that steps every thread's program
generator in lockstep.  As long as each round's instructions are uniform
(same instruction class, identical analytic latency) the round costs a
single ``Timeout`` and the per-thread effects (shared-memory traffic,
clock reads) are applied in tid order at the same engine time the
thread-precise simulation would use.

A round where every live lane executes the *same* rendezvous —
``__syncthreads``, a blocking (Volta) warp sync whose groups are fully
covered by the live lanes, or a shuffle — also runs converged: the
arrivals are performed in tid order now and the scheduler waits on the
release once.  A uniform :class:`Diverge` ladder runs on per-lane virtual
clocks and *re-fuses* at the join that follows it — the next
reconvergence rendezvous.  Any other non-uniform round (per-lane
latencies, mixed instruction classes), or a virtual region that cannot
join, drops the warp to thread-precise mode for the rest of the run: each
lane becomes its own engine process, pending instruction included, so
rendezvous arrival order, issue-port serialization and Pascal shuffle
staleness stay bit-identical (``docs/engine.md`` has the protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.cudasim import instructions as ins
from repro.sim.arch import GPUSpec
from repro.sim.clock import SMClock
from repro.sim.engine import Engine, Resource, Signal, SimulationError, Timeout, WakeAt
from repro.sim.memory import SharedMemory
from repro.sim.sm import block_sync_latency_cycles, warp_sync_params

__all__ = ["BlockBarrier", "ThreadCtx", "WarpExecutor", "WarpRunResult",
           "UnsupportedInstruction"]


class UnsupportedInstruction(SimulationError):
    """Raised when a program uses an instruction the GPU lacks
    (e.g. ``nanosleep`` on Pascal)."""


@dataclass
class _Round:
    """State of one rendezvous round on a board."""

    expected: int
    release: Signal
    arrived: int = 0
    posted: Dict[int, float] = field(default_factory=dict)


class _GroupBoard:
    """Round-keyed rendezvous board: a member's n-th arrival joins round n.

    The executor's one arrival record.  Warp syncs and shuffles keep one
    board per ``(kind, members)`` group of lanes, and
    :class:`BlockBarrier` one over the block's threads; round ``idx``
    releases through the signal ``f"{name}{idx}"``.
    """

    def __init__(self, engine: Engine, members: Sequence[int], name: str):
        self.engine = engine
        self.members = members
        self.name = name
        self.rounds: Dict[int, _Round] = {}
        # Member -> arrivals so far: the round its next arrival joins.
        self.counters: Dict[int, int] = {}
        # Lane -> latest value it has ever posted (stale reads on Pascal).
        self.history: Dict[int, float] = {}

    def arrive(self, member: int) -> _Round:
        """Count ``member``'s next arrival; return the round it joins."""
        idx = self.counters.get(member, 0)
        self.counters[member] = idx + 1
        rnd = self.rounds.get(idx)
        if rnd is None:
            rnd = _Round(len(self.members), Signal(self.engine, f"{self.name}{idx}"))
            self.rounds[idx] = rnd
        rnd.arrived += 1
        return rnd


class BlockBarrier:
    """``__syncthreads`` across a block's threads: one board over their
    block-global tids, the calibrated block-sync latency and the
    shared-memory commit."""

    def __init__(self, engine: Engine, spec: GPUSpec, nthreads: int,
                 shared: SharedMemory):
        self.shared = shared
        self.board = _GroupBoard(engine, range(nthreads), "syncthreads-")
        self.latency_ns = spec.cycles_to_ns(
            block_sync_latency_cycles(spec, math.ceil(nthreads / spec.warp_size))
        )
        self.rounds_completed = 0

    def arrive_nowait(self, gtid: int) -> Signal:
        """Count one arrival now; return the round's release signal.

        The caller yields the signal to wait for the block.  A
        thread-precise lane arrives for itself; the SIMT fast path
        arrives a whole converged warp, or a virtual divergence region's
        lanes at its join, from one warp process.
        """
        rnd = self.board.arrive(gtid)
        if rnd.arrived == rnd.expected:
            self.shared.commit()
            self.board.engine.schedule_fire(self.latency_ns, rnd.release)
            self.rounds_completed += 1
        return rnd.release


@dataclass
class WarpRunResult:
    """Outcome of one warp-level simulation run.

    The three mode counters describe the SIMT fast path's behaviour (all
    zero when the fast path is disabled; summed across warps when several
    warps share one result under a
    :class:`~repro.sim.exec_block.BlockExecutor`):

    ``fused_rounds``
        Rounds executed in converged mode — one ``Timeout`` (or one
        rendezvous wait) standing in for every live lane.
    ``defuse_count``
        Thread-precise excursions: a non-uniform round, or a virtual
        divergence region that could not join, hands every live lane to
        its own process until the lanes retire.  At most one per warp.
    ``refuse_count``
        Virtual divergence joins: a uniform ``Diverge`` region whose lanes
        re-converged at one rendezvous round without leaving the warp
        scheduler.
    """

    duration_ns: float
    duration_cycles: float
    start_ns: Dict[int, float]
    end_ns: Dict[int, float]
    records: Dict[int, Dict[str, Any]]
    returns: Dict[int, Any]
    shared: SharedMemory
    shuffle_incorrect: bool
    fused_rounds: int = 0
    defuse_count: int = 0
    refuse_count: int = 0

    def record_series(self, key: str) -> List[Any]:
        """Collect ``records[tid][key]`` across threads, ordered by tid."""
        return [self.records[tid].get(key) for tid in sorted(self.records)]


class ThreadCtx:
    """Per-thread view handed to kernel programs.

    ``tid`` is the block-global thread id (offset applied when the warp is
    part of a :class:`~repro.sim.exec_block.BlockExecutor`); ``lane`` is
    the intra-warp index.
    """

    def __init__(self, executor: "WarpExecutor", tid_local: int):
        self.executor = executor
        self.tid = executor.tid_offset + tid_local
        self.lane = tid_local % executor.spec.warp_size
        self.records: Dict[str, Any] = {}

    @property
    def nthreads(self) -> int:
        return self.executor.nthreads

    @property
    def spec(self) -> GPUSpec:
        return self.executor.spec

    @property
    def shared(self) -> SharedMemory:
        return self.executor.shared

    def record(self, key: str, value: Any) -> None:
        """Stash a per-thread observation (timers, sums, ...)."""
        self.records[key] = value


class WarpExecutor:
    """Runs one warp's threads precisely on a fresh engine.

    Parameters
    ----------
    spec:
        GPU architecture (controls every latency and the blocking
        semantics of warp barriers).
    nthreads:
        Number of live threads (1..32); the paper's latency protocol uses
        a full warp.

    A lone warp (no ``block_barrier``) is a one-warp block: it gets 64
    shared-memory slots of 8 bytes and its own :class:`BlockBarrier`.
    """

    def __init__(
        self,
        spec: GPUSpec,
        nthreads: int = 32,
        engine: Optional[Engine] = None,
        shared: Optional[SharedMemory] = None,
        tid_offset: int = 0,
        block_barrier: Optional[BlockBarrier] = None,
        simt_fast_path: bool = True,
    ):
        if not (1 <= nthreads <= spec.warp_size):
            raise ValueError(
                f"nthreads must be in [1, {spec.warp_size}], got {nthreads}"
            )
        self.spec = spec
        self.nthreads = nthreads
        self.engine = engine or Engine()
        self.clock = SMClock(self.engine, spec.freq_mhz)
        self.shared = shared if shared is not None else SharedMemory(64)
        self.tid_offset = tid_offset
        self.block_barrier = block_barrier or BlockBarrier(
            self.engine, spec, nthreads, self.shared
        )
        self.simt_fast_path = simt_fast_path
        self.issue_port = Resource(self.engine, capacity=1, name="warp-issue")
        self._boards: Dict[Tuple, _GroupBoard] = {}
        self._members_memo: Dict[Tuple, Tuple[int, ...]] = {}
        self.shuffle_incorrect = False

    # -- group management --------------------------------------------------

    def _group_members(
        self,
        tid: int,
        kind: str,
        group_size: int,
        mask: int = 0xFFFFFFFF,
    ) -> Tuple[int, ...]:
        """Lanes participating in ``tid``'s group of the given kind/size.

        ``mask`` narrows membership the way ``__syncwarp(mask)`` does —
        a correct program only syncs lanes that will actually arrive, which
        is why partial *warp* syncs do not deadlock in the paper's
        Section VIII-B matrix (unlike partial grid/multi-grid syncs).

        Memoized per ``(tid, kind, group_size, mask)``: membership is pure
        in those and in the executor's fixed ``nthreads``, and sync-loop
        programs resolve the same groups every round.
        """
        key = (tid, kind, group_size, mask)
        members = self._members_memo.get(key)
        if members is not None:
            return members
        if kind == "tile":
            base = (tid // group_size) * group_size
            lanes = range(base, base + group_size)
        else:  # coalesced: all mask-selected live threads form one group
            lanes = range(self.nthreads)
        members = tuple(
            l for l in lanes if l < self.nthreads and (mask >> l) & 1
        )
        self._members_memo[key] = members
        return members

    def _board(self, tid: int, op: Any) -> Tuple[_GroupBoard, int]:
        """The board lane ``tid``'s rendezvous ``op`` counts on, and the
        lane's member id there: its block-global tid on the block
        barrier's board, its lane index on a warp-local group's."""
        cls = op.__class__
        if cls is ins.BlockSync:
            return self.block_barrier.board, self.tid_offset + tid
        if cls is ins.WarpSync:
            members = self._group_members(tid, op.kind, op.group_size, op.mask)
            key: Tuple = ("sync", op.kind, members)
        else:
            members = self._group_members(tid, op.kind, op.width)
            key = ("shfl", op.kind, members)
        board = self._boards.get(key)
        if board is None:
            board = self._boards[key] = _GroupBoard(self.engine, members, f"{key}.r")
        return board, tid

    # -- latencies ----------------------------------------------------------

    def _pure_latency_ns(self, op: Any) -> Optional[float]:
        """Latency of ``op`` if it is *pure* — a wait with no effect at the
        lane's own timestamp — else ``None``.

        The one latency table for ``Compute``, ``FAdd``, ``DAdd``,
        ``ChainStep``, ``MethodOverhead`` and ``nanosleep``: the
        interpreter, the converged rounds and the virtual divergence clocks
        all read it.  A non-positive cycle count (a negative
        ``MethodOverhead`` residual) costs nothing on every path.
        """
        spec = self.spec
        cls = op.__class__
        if cls is ins.Compute or cls is ins.MethodOverhead:
            cycles = op.cycles
        elif cls is ins.FAdd:
            cycles = spec.instructions.fadd * op.count
        elif cls is ins.DAdd:
            cycles = spec.instructions.dadd * op.count
        elif cls is ins.ChainStep:
            cycles = spec.shared_mem.chain_latency_cycles * op.count
        elif cls is ins.Nanosleep:
            if not spec.has_nanosleep:
                raise UnsupportedInstruction(
                    f"nanosleep is not available on {spec.name} "
                    "(Volta-only instruction, Section IX-B)"
                )
            return op.ns
        else:
            return None
        return spec.cycles_to_ns(cycles) if cycles > 0 else 0.0

    def _fast_latency_ns(self, tid: int, op: Any) -> Optional[float]:
        """Latency of ``op`` if a converged round can run it as one
        ``Timeout``, else None.

        The pure-latency table plus the instructions that act at one end
        of their latency: clock reads and shared-memory accesses after it
        (:meth:`_complete`), the non-blocking (Pascal) warp sync's fence
        before it.  ``Diverge``, blocking (Volta) warp barriers, shuffles
        and ``__syncthreads`` return None.
        """
        lat = self._pure_latency_ns(op)
        if lat is not None:
            return lat
        spec = self.spec
        ic = spec.instructions
        cls = op.__class__
        if cls is ins.ReadClock:
            cycles = ic.timer_read
        elif cls is ins.SharedLoad:
            cycles = ic.shared_ld
        elif cls is ins.SharedStore:
            cycles = ic.shared_st
        elif cls is ins.WarpSync and not spec.warp_sync.blocking:
            members = self._group_members(tid, op.kind, op.group_size, op.mask)
            cycles = warp_sync_params(spec, op.kind, len(members))[0]
        else:
            return None
        return spec.cycles_to_ns(cycles)

    # -- instruction interpreters --------------------------------------------

    def _issue(self, hold_cycles: float) -> Generator:
        """Serialize through the warp issue port for ``hold_cycles``.

        Only *divergent* execution pays this: in converged SIMT code one
        issue covers all 32 lanes, so ordinary instructions do not
        serialize across threads.
        """
        yield self.issue_port.acquire()
        yield Timeout(self.spec.cycles_to_ns(hold_cycles))
        self.issue_port.release()

    def _complete(self, tid: int, op: Any) -> Any:
        """Apply the effect of a :meth:`_fast_latency_ns` instruction once
        its latency has passed; return the value its ``yield`` delivers.

        Thread-precise lanes and the converged lockstep loop both call
        this, so a clock read or shared-memory access acts identically in
        either mode.
        """
        cls = op.__class__
        if cls is ins.ReadClock:
            return self.clock.read()
        if cls is ins.SharedLoad:
            return self.shared.load(
                self.tid_offset + tid, op.slot, volatile=op.volatile
            )
        if cls is ins.SharedStore:
            self.shared.store(
                self.tid_offset + tid, op.slot, op.value, volatile=op.volatile
            )
        return None

    def _warp_sync_arrive(self, tid: int, op: ins.WarpSync) -> Signal:
        """Arrival half of a blocking (Volta) warp sync.

        Performs the round's bookkeeping now — the last member commits
        shared memory and schedules the release — and returns the release
        signal the caller must wait on.  Split from the blocking yield so
        both a thread-precise lane and the converged warp scheduler run
        the exact same arrival sequence.
        """
        board, _ = self._board(tid, op)
        latency = warp_sync_params(self.spec, op.kind, len(board.members))[0]
        rnd = board.arrive(tid)
        if rnd.arrived == rnd.expected:
            self.shared.commit()
            self.engine.schedule_fire(self.spec.cycles_to_ns(latency), rnd.release)
        return rnd.release

    def _shuffle_arrive(
        self, tid: int, op: ins.ShuffleDown
    ) -> Tuple[Optional[Signal], Callable[[], Any]]:
        """Arrival half of a shuffle: post the value, count the arrival.

        Returns ``(release, finish)``: on Volta ``release`` is the group's
        rendezvous signal (the last arrival schedules its fire); on Pascal
        it is ``None`` and the caller pays the non-blocking latency
        itself.  ``finish()`` performs the post-latency read — including
        the Pascal stale-read semantics when the partner has not posted
        this round.
        """
        board, _ = self._board(tid, op)
        members = board.members
        latency = warp_sync_params(self.spec, "shuffle_" + op.kind, op.width)[0]
        rnd = board.arrive(tid)
        rnd.posted[tid] = op.value
        board.history[tid] = op.value
        src = tid + op.delta

        def finish() -> Any:
            if src not in members:
                return op.value
            if src in rnd.posted:
                return rnd.posted[src]
            self.shuffle_incorrect = True
            return board.history.get(src, 0.0)

        if self.spec.warp_sync.blocking:
            # Volta: shuffle implies synchronization of the group.
            if rnd.arrived == rnd.expected:
                self.engine.schedule_fire(
                    self.spec.cycles_to_ns(latency), rnd.release
                )
            return rnd.release, finish
        return None, finish

    def _pascal_shuffle_latency_ns(self, op: ins.ShuffleDown) -> float:
        latency = warp_sync_params(self.spec, "shuffle_" + op.kind, op.width)[0]
        return self.spec.cycles_to_ns(max(0.0, latency - 1))

    def _exec_shuffle(self, tid: int, op: ins.ShuffleDown) -> Generator:
        release, finish = self._shuffle_arrive(tid, op)
        if release is not None:
            yield release
            return finish()
        # Pascal: no blocking.  In converged code lanes post in lockstep so
        # the partner's value is already on the board; in divergent code the
        # read goes stale — the paper's "shuffle does not work correctly".
        yield Timeout(self._pascal_shuffle_latency_ns(op))
        return finish()

    def _block_sync_arrive(self, tid: int) -> Signal:
        """Arrival half of ``__syncthreads``; returns the round's release."""
        return self.block_barrier.arrive_nowait(self.tid_offset + tid)

    def _interpret(self, tid: int, op: Any) -> Generator:
        """Dispatch one instruction; yields engine yieldables, returns value."""
        lat = self._fast_latency_ns(tid, op)
        if lat is not None:
            if op.__class__ is ins.WarpSync:
                # Pascal: fence semantics only (Section VIII-A / VII-C).
                # Pending writes are keyed by the block-global tid.
                self.shared.commit_thread(self.tid_offset + tid)
            if lat > 0.0:
                yield Timeout(lat)
            return self._complete(tid, op)
        cls = op.__class__
        if cls is ins.Diverge:
            # Serialized divergent arm: hold the issue port for the full
            # arm cost so later arms (higher tids) start later.
            yield from self._issue(self.spec.instructions.divergent_arm_cycles * op.arms)
        elif cls is ins.WarpSync:
            # Volta: the barrier blocks until the group arrives.
            yield self._warp_sync_arrive(tid, op)
        elif cls is ins.BlockSync:
            # Blocks on every architecture (unlike warp syncs).
            yield self._block_sync_arrive(tid)
        elif cls is ins.ShuffleDown:
            value = yield from self._exec_shuffle(tid, op)
            return value
        else:
            raise SimulationError(f"unknown instruction {op!r}")
        return None

    # -- converged rendezvous rounds -------------------------------------------

    #: Fields that make two rendezvous instructions "the same barrier";
    #: shared by the converged-round and virtual-terminator uniformity
    #: checks so the two modes can never drift apart.
    _RENDEZVOUS_FIELDS = {
        ins.BlockSync: (),
        ins.WarpSync: ("kind", "group_size", "mask"),
        ins.ShuffleDown: ("kind", "width", "delta"),
    }

    @classmethod
    def _ops_uniform(cls, live: List[int], ops) -> bool:
        """Whether every live lane's next op is the same rendezvous
        instruction (same class, same identity fields; per-lane payloads
        like a shuffle's ``value`` may differ)."""
        op0 = ops[live[0]]
        fields = cls._RENDEZVOUS_FIELDS.get(op0.__class__)
        if fields is None:
            return False
        for i in live[1:]:
            op = ops[i]
            if op.__class__ is not op0.__class__:
                return False
            for f in fields:
                if getattr(op, f) != getattr(op0, f):
                    return False
        return True

    def _try_converged_rendezvous(
        self, live: List[int], ops: List[Any]
    ) -> Optional[Tuple[Any, Optional[Dict[int, Callable[[], Any]]]]]:
        """Execute a uniform rendezvous round without leaving converged mode.

        When every live lane's next instruction is the *same* rendezvous —
        ``__syncthreads``, a blocking (Volta) warp sync whose groups are
        fully covered by the live lanes, or a shuffle — all arrivals are
        performed now, in tid order (exactly the sequence thread-precise
        lanes dispatched at this timestamp would produce), and the round
        reduces to one wait.  Returns ``(waitable, finishes)`` — the
        scheduler yields ``waitable`` and then calls ``finishes[i]()`` for
        each lane's resume value — or ``None`` when the round is not a
        convergable rendezvous (the scheduler then de-fuses).
        """
        if not self._ops_uniform(live, ops):
            return None
        op0 = ops[live[0]]
        cls = op0.__class__
        if cls is ins.WarpSync and not self.spec.warp_sync.blocking:
            return None
        if cls is not ins.BlockSync:
            # Every group must be completed by this round's arrivals —
            # a mask selecting absent (retired or straggling) lanes, or a
            # lane excluded from its own group, cannot release now and
            # takes the thread-precise path instead.
            live_set = set(live)
            for i in live:
                members = self._board(i, ops[i])[0].members
                if i not in members or not set(members) <= live_set:
                    return None
        release, finishes = self._arrive_all(live, ops)
        if release is None:  # Pascal shuffle: non-blocking, pure latency
            release = Timeout(self._pascal_shuffle_latency_ns(op0))
        return release, finishes

    def _arrive_all(
        self, order: List[int], ops: Any
    ) -> Tuple[Optional[Signal], Optional[Dict[int, Callable[[], Any]]]]:
        """Arrive each lane of ``order``, in that order, at its uniform
        rendezvous ``ops[i]``: a converged round's arrivals and a virtual
        join's share this one loop.

        Returns ``(release, finishes)``: the first lane's release (None on
        a Pascal shuffle) and, for a shuffle, each lane's post-release
        read.  Tile partitions release as separate signals, but every
        group schedules the same (size-independent tile) latency from the
        same timestamp, so one wait stands in for all of them.
        """
        cls = ops[order[0]].__class__
        finishes: Optional[Dict[int, Callable[[], Any]]] = (
            {} if cls is ins.ShuffleDown else None
        )
        release = None
        for i in order:
            if finishes is not None:
                sig, finishes[i] = self._shuffle_arrive(i, ops[i])
            elif cls is ins.WarpSync:
                sig = self._warp_sync_arrive(i, ops[i])
            else:
                sig = self._block_sync_arrive(i)
            if release is None:
                release = sig
        return release, finishes

    # -- staggered (virtual) divergence regions --------------------------------

    def _virtual_divergence(
        self,
        live: List[int],
        ops: List[Any],
        gens: List[Generator],
        ctxs: List[ThreadCtx],
        result: WarpRunResult,
    ) -> Generator:
        """Run a uniform-``Diverge`` region analytically, re-fusing at the join.

        Entered when every live lane's next instruction is a
        :class:`~repro.cudasim.instructions.Diverge`.  The serialized
        staircase is computed lane-locally (the issue port is free and the
        live lanes are its only contenders, so grants happen in lockstep
        order and exit times accumulate ``t = t + hold`` — the same float
        additions the per-event simulation performs).  Each lane then runs
        ahead through *pure-latency* instructions, accumulating its own
        virtual clock with zero engine events, until it reaches a
        reconvergence rendezvous.  If every lane lands on the same
        rendezvous round, the scheduler wakes at the last lane's
        (bit-exact, via :class:`~repro.sim.engine.WakeAt`) arrival time,
        performs the arrivals in arrival-time order, waits on the release
        once, and returns ``(order, pending, values)`` — the warp is
        converged again.  Anything else — a value-producing or
        memory-touching instruction, a retiring lane, mismatched
        rendezvous, nested divergence, or an exact arrival-time tie whose
        thread-precise ordering depends on event sequence numbers — aborts
        and returns None: every lane is spawned as a thread-precise
        :meth:`_lane` that first *replays* its consumed ops
        event-for-event, so abort costs thread-precise speed but never
        correctness.
        """
        engine = self.engine
        spec = self.spec
        arm_cycles = spec.instructions.divergent_arm_cycles
        t: Dict[int, float] = {}
        logs: Dict[int, List[Tuple[str, float]]] = {}
        port_time = engine.now
        for i in live:
            hold_cycles = arm_cycles * ops[i].arms
            logs[i] = [("issue_cycles", hold_cycles)]
            port_time = port_time + spec.cycles_to_ns(hold_cycles)
            t[i] = port_time
        # Each lane's pending instruction, or the StopIteration of a
        # program that ended inside the region.
        pend: Dict[int, Any] = {}
        for i in live:
            ti = t[i]
            gen = gens[i]
            log = logs[i]
            while True:
                try:
                    nxt = gen.send(None)
                except StopIteration as stop:
                    pend[i] = stop
                    break
                lat = self._pure_latency_ns(nxt)
                if lat is None:
                    pend[i] = nxt
                    break
                log.append(("timeout_ns", lat))
                ti = ti + lat
            t[i] = ti

        plan = self._virtual_terminator(live, pend, t)
        if plan is None:
            off = self.tid_offset
            for i in live:
                engine.process_now(
                    self._lane(i, ctxs[i], gens[i], result, pend[i], logs[i]),
                    name=f"t{off + i}",
                )
            return None

        # Re-fuse at the join: land on the last arrival's exact timestamp,
        # arrive in arrival-time order, wait out the release once.
        order = plan
        max_t = t[order[-1]]
        if max_t > engine.now:
            yield WakeAt(max_t)
        release, finishes = self._arrive_all(order, pend)
        yield release
        vals = {
            i: (finishes[i]() if finishes is not None else None) for i in order
        }
        return order, pend, vals

    def _virtual_terminator(
        self,
        live: List[int],
        pend: Dict[int, Any],
        t: Dict[int, float],
    ) -> Optional[List[int]]:
        """Validate a virtual region's ending and return the arrival order.

        Returns the live lanes sorted by arrival time when every lane
        pends on the *same* rendezvous round releasing through one signal
        (``__syncthreads``; a blocking full-single-group warp sync or
        shuffle), with all arrival times distinct — or ``None`` to force
        the replay abort.
        """
        if any(pend[i].__class__ is StopIteration for i in live):
            return None
        if not self._ops_uniform(live, pend):
            return None
        op0 = pend[live[0]]
        warp_local = op0.__class__ is not ins.BlockSync
        if warp_local and not self.spec.warp_sync.blocking:
            return None
        board, member = self._board(live[0], op0)
        if warp_local and set(board.members) != set(live):
            return None
        idx = board.counters.get(member, 0)  # every lane must join this round
        for i in live[1:]:
            other, member = self._board(i, pend[i])
            if other is not board or board.counters.get(member, 0) != idx:
                return None
        # Arrival-time order; exact ties would need event-sequence-number
        # ordering the virtual clocks cannot reconstruct, so ties abort.
        order = sorted(live, key=t.__getitem__)
        for a, b in zip(order, order[1:]):
            if t[a] == t[b]:
                return None
        return order

    def _fast_warp_proc(
        self,
        program: Callable[[ThreadCtx], Generator],
        result: WarpRunResult,
    ) -> Generator:
        """Mode-switching warp scheduler: converged rounds, virtual
        divergence joins, and a one-way drop to thread-precise lanes.

        Each converged round replays, per live thread *in tid order*,
        exactly what a thread-precise step event does at this timestamp:
        apply the post-latency effect of the instruction that just
        completed (clock read, shared-memory access), advance the program
        generator, and apply the next instruction's dispatch-time effect
        (the Pascal warp-sync fence commit).  If every live thread's next
        instruction is analytic with one common latency, the round costs a
        single ``Timeout`` instead of ``nthreads`` heap events; a uniform
        rendezvous round costs the arrivals plus one wait
        (:meth:`_try_converged_rendezvous`), and a uniform ``Diverge``
        ladder runs on virtual clocks up to its join
        (:meth:`_virtual_divergence`).  Any other round spawns one
        :meth:`_lane` process per live lane (pending instruction included)
        and the scheduler ends: the lanes run thread-precise until they
        retire.
        """
        engine = self.engine
        shared = self.shared
        off = self.tid_offset
        n = self.nthreads
        now = engine.now
        ctxs = [ThreadCtx(self, i) for i in range(n)]
        gens: List[Generator] = []
        for ctx in ctxs:
            result.start_ns[ctx.tid] = now
            gens.append(program(ctx))
        ops: List[Any] = [None] * n
        vals: List[Any] = [None] * n
        has_val: List[bool] = [False] * n
        lat_ns: List[Optional[float]] = [0.0] * n
        live = list(range(n))
        while live:
            survivors = []
            for i in live:
                # Post-latency effect of the instruction completed last
                # round (the thread-precise interpreter applies it after
                # its Timeout, inside the same step event that fetches and
                # dispatches the next instruction).  Rendezvous rounds and
                # virtual joins deliver a precomputed value instead.
                if has_val[i]:
                    value: Any = vals[i]
                    has_val[i] = False
                    vals[i] = None
                else:
                    op = ops[i]
                    value = None if op is None else self._complete(i, op)
                try:
                    nxt = gens[i].send(value)
                except StopIteration as stop:
                    self._retire(ctxs[i], stop.value, result)
                    continue
                survivors.append(i)
                ops[i] = nxt
                lat_ns[i] = lat = self._fast_latency_ns(i, nxt)
                # Dispatch-time effect: the non-blocking (Pascal) warp sync
                # commits this thread's pending writes *now*, before later
                # threads' effects at this timestamp — bit-identical to the
                # precise interpreter.
                if nxt.__class__ is ins.WarpSync and lat is not None:
                    shared.commit_thread(off + i)
            live = survivors
            if not live:
                return
            latency = lat_ns[live[0]]
            uniform = latency is not None
            if uniform:
                for i in live[1:]:
                    if lat_ns[i] != latency:
                        uniform = False
                        break
            if uniform:
                result.fused_rounds += 1
                if latency > 0.0:
                    yield Timeout(latency)
                continue
            plan = self._try_converged_rendezvous(live, ops)
            if plan is not None:
                waitable, finishes = plan
                result.fused_rounds += 1
                yield waitable
                for i in live:
                    vals[i] = finishes[i]() if finishes is not None else None
                    has_val[i] = True
                continue
            if all(ops[i].__class__ is ins.Diverge for i in live):
                # Uniform divergence ladder: run the region on per-lane
                # virtual clocks and re-fuse at the join when possible.
                joined = yield from self._virtual_divergence(
                    live, ops, gens, ctxs, result
                )
                if joined is not None:
                    live, pendmap, valmap = joined
                    result.fused_rounds += 1
                    result.refuse_count += 1
                    for i in live:
                        ops[i] = pendmap[i]
                        vals[i] = valmap[i]
                        has_val[i] = True
                    continue
            else:
                # Genuinely non-uniform: hand every thread to its own
                # process for the rest of the run, in lockstep order and
                # inside this event, so rendezvous arrivals, issue-port
                # grants and other warps' equal-time events keep their
                # thread-precise order.
                for i in live:
                    if ops[i].__class__ is ins.WarpSync and lat_ns[i] is not None:
                        # The round above committed this Pascal sync's
                        # fence; only its latency remains.
                        lane = self._lane(
                            i, ctxs[i], gens[i], result,
                            log=[("timeout_ns", lat_ns[i])],
                        )
                    else:
                        lane = self._lane(i, ctxs[i], gens[i], result, ops[i])
                    engine.process_now(lane, name=f"t{off + i}")
            result.defuse_count += 1
            return

    # -- running --------------------------------------------------------------

    def _lane(
        self,
        tid: int,
        ctx: ThreadCtx,
        gen: Generator,
        result: WarpRunResult,
        op: Any = None,
        log: Sequence[Tuple[str, float]] = (),
    ) -> Generator:
        """One lane run thread-precisely until its program returns.

        The reference path (``simt_fast_path=False``) starts every lane
        here with ``op=None``: the first instruction comes from ``gen``.
        The fast path hands a lane over with its pending ``op``, and
        sometimes a ``log`` to replay first, event-for-event:
        ``("issue_cycles", hold)`` is a divergent-arm issue-port hold and
        ``("timeout_ns", lat)`` a pure latency.  That covers a de-fused
        Pascal warp sync whose fence the converged round already committed
        (the log is the sync's latency, ``op`` None) and an aborted virtual
        divergence region (the log is the lane's consumed ops; ``op`` is
        the lane's ``StopIteration`` if its program ended inside the
        region).
        """
        for kind, amount in log:
            if kind == "issue_cycles":
                yield from self._issue(amount)
            elif amount > 0.0:
                yield Timeout(amount)
        try:
            if op is None:
                op = gen.send(None)
            while op.__class__ is not StopIteration:
                value = yield from self._interpret(tid, op)
                op = gen.send(value)
        except StopIteration as stop:
            op = stop
        self._retire(ctx, op.value, result)

    def _retire(self, ctx: ThreadCtx, value: Any, result: WarpRunResult) -> None:
        gtid = ctx.tid
        result.returns[gtid] = value
        result.end_ns[gtid] = self.engine.now
        result.records[gtid] = ctx.records

    def start(
        self,
        program: Callable[[ThreadCtx], Generator],
        result: Optional[WarpRunResult] = None,
    ) -> WarpRunResult:
        """Spawn the warp's processes without driving the engine.

        Used by :class:`~repro.sim.exec_block.BlockExecutor`, which owns
        the engine and starts several warps before running.  With the SIMT
        fast path enabled this spawns a single lockstep warp process;
        otherwise one process per thread.
        """
        if result is None:
            result = WarpRunResult(
                duration_ns=0.0,
                duration_cycles=0.0,
                start_ns={},
                end_ns={},
                records={},
                returns={},
                shared=self.shared,
                shuffle_incorrect=False,
            )
        if self.simt_fast_path:
            self.engine.process(
                self._fast_warp_proc(program, result),
                name=f"warp@{self.tid_offset}",
            )
            return result
        for tid_local in range(self.nthreads):
            ctx = ThreadCtx(self, tid_local)
            result.start_ns[ctx.tid] = self.engine.now
            self.engine.process(
                self._lane(tid_local, ctx, program(ctx), result),
                name=f"t{ctx.tid}",
            )
        return result

    def run(self, program: Callable[[ThreadCtx], Generator]) -> WarpRunResult:
        """Execute ``program`` on every thread; return timing and records."""
        t0 = self.engine.now
        result = self.start(program)
        self.engine.run()
        result.duration_ns = self.engine.now - t0
        result.duration_cycles = self.spec.ns_to_cycles(result.duration_ns)
        result.shuffle_incorrect = self.shuffle_incorrect
        return result
