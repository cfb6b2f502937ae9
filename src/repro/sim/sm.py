"""Streaming-multiprocessor level models.

Two SM-scoped mechanisms drive the paper's single-GPU results:

* **Block barriers** (``__syncthreads``): one synchronization of a
  ``w``-warp block costs ``base + per_warp_latency * w`` cycles (fits
  Tables II/IV).  Per-warp throughput ``w / L(w)`` then *rises* with the
  active warp count and saturates near the occupancy limit — exactly the
  Fig 4 curves; beyond residency, blocks time-share the SM and the
  apparent latency grows linearly again (Fig 4, upper panel).
* **Warp-sync pipelines**: warp-level sync/shuffle ops retire through a
  per-SM pipeline with an initiation interval; sustained throughput
  saturates at ``1/II`` once enough warps are in flight (the Table II
  throughput protocol: best over all thread/block configurations).

Both are capacity-1 FIFO pipes.  Where the oracle switch allows
shortcuts (:func:`repro.sim.engine.shortcuts_allowed`) they resolve
without the event loop wherever that is exact: a saturated pipe folds,
the warp pipe replays its FIFO recurrence in every regime, and a lone
block replays its one process.  The fold and the lone-customer
replay also serve the shared-memory proxy of
:mod:`repro.microbench.intra_sm` (docs/engine.md, "Pipes without the
event loop").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Generator

from repro.sim.arch import GPUSpec
from repro.sim.engine import Engine, Resource, Timeout, shortcuts_allowed
from repro.sim.occupancy import blocks_per_sm as occ_blocks_per_sm

__all__ = [
    "BlockSyncResult",
    "block_sync_latency_cycles",
    "simulate_block_sync",
    "WarpSyncThroughputResult",
    "simulate_warp_sync_throughput",
    "warp_sync_params",
]


def block_sync_latency_cycles(spec: GPUSpec, warps: int) -> float:
    """Single-shot latency (cycles) of one block sync over ``warps`` warps.

    ``L(w) = base + per_warp_latency * w`` — the model behind Table IV's
    "sync ltc" row (5 syncs of a 1024-thread block: 420 cy V100 / 2135 cy
    P100).
    """
    if warps < 1:
        raise ValueError("a block has at least one warp")
    bs = spec.block_sync
    return bs.base_latency_cycles + bs.per_warp_latency_cycles * warps


# -- capacity-1 pipes without the event loop ----------------------------------
#
# The micro-benchmarks below, and the shared-memory proxy of
# repro.microbench.intra_sm, queue work on a capacity-1 FIFO Resource with a
# fixed service time.  Where the order of service is known, the engine's
# clock can be replayed with the same IEEE-754 operations in the same
# order, so the result is bit-identical:
#
# * a pipe that never idles grants at the previous grant's ``now + service``,
#   the left fold T_0 = 0.0, T_{j+1} = T_j + service (``_fold``, behind a
#   guard that proves the pipe never idles);
# * a lone customer never waits for the pipe (``_replay_lone``);
# * the warp pipe serves its warps round-robin in every regime
#   (``_warp_pipe_end``).
#
# docs/engine.md ("Pipes without the event loop") derives each case.  They
# stand in only where shortcuts_allowed() says so; otherwise the events run
# on a fresh engine, the oracle the shortcuts are checked against.  The
# event path fires no signal and crosses no barrier, so a sanitizer
# monitor records nothing from either path.


def _check_counts(**counts: int) -> None:
    """Reject a count that is not an integer >= 1, before a path is picked
    (a float would otherwise fail differently on each path, or not at all)."""
    for name, count in counts.items():
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")


def _pipe_ns(spec: GPUSpec, cycles: float, what: str) -> float:
    """``cycles`` in ns, checked as the event path's ``Timeout`` checks it.

    Every path starts from these times, so a pipe rejects a bad
    calibration value before it picks one: a NaN latency would otherwise
    compare its way to a zero wait on the paths that never build a
    ``Timeout`` from it.
    """
    ns = spec.cycles_to_ns(cycles)
    if not 0.0 <= ns < math.inf:
        raise ValueError(
            f"{spec.name}: {what} = {cycles!r} cycles; a pipe's service and "
            f"latency must be finite and >= 0"
        )
    return ns


def _fold(service_ns: float, n_services: int) -> float:
    """End of ``n_services`` back-to-back services, added as the engine adds."""
    return reduce(add, repeat(service_ns, n_services), 0.0)


def _replay_lone(
    service_ns: float, per_round: int, rounds: int, latency_ns: float
) -> float:
    """Clock advance of a lone customer's run, replayed.

    Each round holds the pipe for ``per_round`` services, then waits out
    whatever is left of ``latency_ns`` since the round began.  Nobody else
    queues, so every acquire is granted on the spot and the clock moves
    only by the customer's own timeouts, added as the engine adds them.
    """
    now = 0.0
    for _ in range(rounds):
        start = now
        for _ in range(per_round):
            now = now + service_ns
        remaining = latency_ns - (now - start)
        if remaining > 0:
            now = now + remaining
    return now


def _outlasts(span: int, service_ns: float, bound_ns: float, total_ns: float) -> bool:
    """Whether ``span`` back-to-back services always take longer than ``bound_ns``.

    The margin covers the fold's rounding: each addition errs by at most
    half an ulp of the running total (at most ``total_ns``), and a span of
    the chain accumulates ``span`` of those errors.
    """
    return span * service_ns - bound_ns > span * total_ns * 2.0**-48


@dataclass(frozen=True)
class BlockSyncResult:
    """Outcome of a block-sync micro-benchmark on one SM."""

    warps_per_block: int
    n_blocks: int
    repeats: int
    resident_blocks: int
    active_warps: int
    total_warps: int
    total_ns: float
    total_cycles: float

    @property
    def latency_per_sync_cycles(self) -> float:
        """Apparent per-sync latency from the launch perspective.

        With oversubscription the queued blocks extend the wall time, so
        this grows past the saturation point (Fig 4, upper panel).
        """
        return self.total_cycles / self.repeats

    @property
    def per_warp_throughput(self) -> float:
        """Warp-syncs retired per cycle (Fig 4, lower panel)."""
        total_ops = self.total_warps * self.repeats
        return total_ops / self.total_cycles if self.total_cycles else 0.0


def simulate_block_sync(
    spec: GPUSpec,
    warps_per_block: int,
    n_blocks: int,
    repeats: int = 8,
) -> BlockSyncResult:
    """Run ``n_blocks`` blocks of ``warps_per_block`` warps, each executing
    ``repeats`` back-to-back block syncs, on a single SM with residency
    scheduling.

    Blocks beyond the occupancy limit queue and start as residents retire —
    the time-sharing regime of Fig 4's oversubscribed right-hand side.

    Where shortcuts are allowed, a barrier unit that provably never idles
    is folded exactly and a lone block replays its own arithmetic; every
    other run is event-precise on a fresh engine.  A count that is not an
    integer >= 1, or a non-finite or negative service interval or sync
    latency, raises :class:`ValueError` on every path.
    """
    _check_counts(warps_per_block=warps_per_block, n_blocks=n_blocks, repeats=repeats)
    if warps_per_block * spec.warp_size > spec.max_threads_per_block:
        raise ValueError(f"invalid warps_per_block={warps_per_block} for {spec.name}")

    occ = occ_blocks_per_sm(spec, warps_per_block * spec.warp_size)
    resident_cap = max(1, occ.blocks_per_sm)
    resident = min(n_blocks, resident_cap)
    service_ns = _pipe_ns(
        spec, spec.block_sync.per_warp_service_cycles,
        "block_sync.per_warp_service_cycles",
    )
    latency_ns = _pipe_ns(
        spec, block_sync_latency_cycles(spec, warps_per_block),
        "block_sync.base_latency_cycles + per_warp_latency_cycles * warps",
    )
    n_services = n_blocks * warps_per_block * repeats
    shortcut = shortcuts_allowed()

    # Saturated: the resident blocks take turns warp by warp, and a round
    # that spans at least (wpb-1)*resident+1 services already outlasts the
    # sync latency, so no block ever waits outside the unit.  Equal waves
    # (n_blocks a multiple of resident) keep every turn filled to the end.
    if shortcut and n_blocks % resident == 0 and _outlasts(
        (warps_per_block - 1) * resident + 1,
        service_ns,
        latency_ns,
        n_services * service_ns,
    ):
        total_ns = _fold(service_ns, n_services)
    elif shortcut and n_blocks == 1:
        total_ns = _replay_lone(service_ns, warps_per_block, repeats, latency_ns)
    # Several latency-bound blocks (each re-queues at its own release, so
    # the unit's order of service is not round-robin and only the events
    # know it), or no shortcut allowed.
    else:
        total_ns = _run_block_sync(
            resident_cap, warps_per_block, n_blocks, repeats, service_ns, latency_ns
        )

    return BlockSyncResult(
        warps_per_block=warps_per_block,
        n_blocks=n_blocks,
        repeats=repeats,
        resident_blocks=resident,
        active_warps=resident * warps_per_block,
        total_warps=n_blocks * warps_per_block,
        total_ns=total_ns,
        total_cycles=spec.ns_to_cycles(total_ns),
    )


def _run_block_sync(
    resident_cap: int,
    warps_per_block: int,
    n_blocks: int,
    repeats: int,
    service_ns: float,
    latency_ns: float,
) -> float:
    """Event-precise block-sync run on a fresh engine; returns its end (ns)."""
    eng = Engine()
    slots = Resource(eng, capacity=resident_cap, name="sm-block-slots")
    # All resident blocks share the SM's barrier unit: arrivals drain at one
    # service interval each, so per-warp throughput saturates at
    # 1/per_warp_service_cycles no matter how blocks partition the warps
    # (the Fig 4 plateau).  A lone block is latency-bound instead.
    barrier_unit = Resource(eng, capacity=1, name="sm-barrier-unit")
    t_service = Timeout(service_ns)  # immutable: reused across every yield

    def block_proc() -> Generator:
        yield slots.acquire()
        for _ in range(repeats):
            round_start = eng.now
            for _ in range(warps_per_block):
                yield barrier_unit.acquire()
                yield t_service
                barrier_unit.release()
            remaining = latency_ns - (eng.now - round_start)
            if remaining > 0:
                yield Timeout(remaining)
        slots.release()

    for b in range(n_blocks):
        eng.process(block_proc(), name=f"block{b}")
    return eng.run()


@dataclass(frozen=True)
class WarpSyncThroughputResult:
    """Outcome of a warp-sync throughput micro-benchmark."""

    kind: str
    group_size: int
    n_warps: int
    repeats: int
    total_cycles: float
    total_ops: int

    @property
    def throughput_ops_per_cycle(self) -> float:
        return self.total_ops / self.total_cycles if self.total_cycles else 0.0


def _warp_sync_field(spec: GPUSpec, kind: str, group_size: int) -> str:
    """The :class:`~repro.sim.arch.WarpSyncCalib` field prefix ``kind`` reads."""
    if kind == "coalesced":
        return "coalesced_full" if group_size >= spec.warp_size else "coalesced_partial"
    if kind in ("tile", "shuffle_tile", "shuffle_coalesced"):
        return kind
    raise ValueError(f"unknown warp sync kind {kind!r}")


def warp_sync_params(spec: GPUSpec, kind: str, group_size: int) -> tuple[float, float]:
    """(latency, initiation interval) in cycles for a warp-sync op kind.

    The one Table II lookup: ``kind`` is ``"tile"`` or ``"coalesced"``
    for a warp barrier, ``"shuffle_tile"`` or ``"shuffle_coalesced"`` for
    a shuffle; only a coalesced barrier's cost depends on ``group_size``.
    A throughput that is not finite and positive raises
    :class:`ValueError` naming its ``warp_sync`` field.
    """
    field = _warp_sync_field(spec, kind, group_size)
    throughput = getattr(spec.warp_sync, f"{field}_throughput")
    if not 0.0 < throughput < math.inf:
        raise ValueError(
            f"{spec.name}: warp_sync.{field}_throughput = {throughput!r}; "
            "a throughput must be finite and > 0"
        )
    return getattr(spec.warp_sync, f"{field}_latency"), 1.0 / throughput


def simulate_warp_sync_throughput(
    spec: GPUSpec,
    kind: str,
    group_size: int = 32,
    n_warps: int = 64,
    repeats: int = 64,
) -> WarpSyncThroughputResult:
    """Drive ``n_warps`` warps through ``repeats`` dependent sync ops each.

    Each op occupies the SM's sync pipeline for one initiation interval;
    a warp issues its next op one latency after the previous.  Sustained
    throughput therefore approaches ``min(n_warps/latency, 1/II)`` — the
    paper's "highest result" protocol reaches the ``1/II`` plateau.

    Where shortcuts are allowed no engine is built: a pipeline that
    provably never idles is folded, and any other replays the pipe's FIFO
    recurrence, both exactly.  Otherwise the run is event-precise on a
    fresh engine.  A count that is not an integer >= 1, a ``group_size``
    above ``warp_size``, or a non-finite or negative latency or
    initiation interval raises :class:`ValueError`.
    """
    _check_counts(group_size=group_size, n_warps=n_warps, repeats=repeats)
    if group_size > spec.warp_size:
        raise ValueError(f"group_size must be in [1, {spec.warp_size}], got {group_size}")
    latency_cy, ii_cy = warp_sync_params(spec, kind, group_size)
    kind_field = _warp_sync_field(spec, kind, group_size)
    _pipe_ns(spec, latency_cy, f"warp_sync.{kind_field}_latency")
    ii_ns = _pipe_ns(spec, ii_cy, f"1 / warp_sync.{kind_field}_throughput")
    tail_ns = spec.cycles_to_ns(max(0.0, latency_cy - ii_cy))
    n_ops = n_warps * repeats

    if not shortcuts_allowed():
        total_ns = _run_warp_sync(n_warps, repeats, ii_ns, tail_ns)
    # Saturated: a warp leaving the pipe is back after tail_ns, before the
    # other n_warps-1 warps have each held it for one interval.
    elif _outlasts(n_warps - 1, ii_ns, tail_ns, n_ops * ii_ns + tail_ns):
        # The last warp's final tail ends the run (adding 0.0 changes no bit).
        total_ns = _fold(ii_ns, n_ops) + tail_ns
    else:
        total_ns = _warp_pipe_end(n_warps, repeats, ii_ns, tail_ns)

    return WarpSyncThroughputResult(
        kind=kind,
        group_size=group_size,
        n_warps=n_warps,
        repeats=repeats,
        total_cycles=spec.ns_to_cycles(total_ns),
        total_ops=n_ops,
    )


def _warp_pipe_end(n_warps: int, repeats: int, ii_ns: float, tail_ns: float) -> float:
    """End of the warp pipe in any regime: the engine's FIFO, replayed.

    Every warp re-queues one ``tail_ns`` after its own release, so the
    warps take the pipe round-robin and each grant is the later of the
    warp's arrival and the previous release (docs/engine.md derives it).
    The ``max`` matters: independent per-warp chains round differently.
    A zero tail is added as 0.0, which changes no bit.
    """
    arrive = [0.0] * n_warps
    release = 0.0
    for _ in range(repeats):
        for k, at in enumerate(arrive):
            release = (at if at > release else release) + ii_ns
            arrive[k] = release + tail_ns
    return release + tail_ns


def _run_warp_sync(n_warps: int, repeats: int, ii_ns: float, tail_ns: float) -> float:
    """Event-precise warp-sync pipeline run on a fresh engine; returns its end (ns)."""
    eng = Engine()
    pipe = Resource(eng, capacity=1, name="warp-sync-pipe")
    t_ii = Timeout(ii_ns)
    t_tail = Timeout(tail_ns) if tail_ns else None

    def warp_proc() -> Generator:
        for _ in range(repeats):
            yield pipe.acquire()
            yield t_ii
            pipe.release()
            if t_tail is not None:
                yield t_tail

    for w in range(n_warps):
        eng.process(warp_proc(), name=f"warp{w}")
    return eng.run()
