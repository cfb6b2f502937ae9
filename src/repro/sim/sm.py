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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Generator, Optional

from repro.sim.arch import GPUSpec
from repro.sim.engine import Engine, Resource, Timeout
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


# -- saturated capacity-1 pipes ------------------------------------------------
#
# Both micro-benchmarks below queue work on a capacity-1 FIFO Resource with a
# fixed service time.  While that pipe never idles, every grant lands at the
# previous grant's ``now + service``: the engine's clock walks the left fold
# T_0 = 0.0, T_{j+1} = T_j + service.  When a guard proves the pipe never
# idles, the simulations return that fold instead of pushing every service
# through the event loop -- the same IEEE-754 additions in the same order,
# so the result is bit-identical.  docs/engine.md ("Saturated pipes")
# derives both guards.  The fold stands in only when nobody can observe
# the engine: a caller-supplied one is the oracle seam (its clock and event
# count must move).  A sanitizer monitor does not stop it: the event path
# fires no signal and crosses no barrier, so the monitor records nothing
# from it either way.


def _fold(service_ns: float, n_services: int) -> float:
    """End of ``n_services`` back-to-back services, added as the engine adds."""
    return reduce(add, repeat(service_ns, n_services), 0.0)


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
    engine: Optional[Engine] = None,
) -> BlockSyncResult:
    """Run ``n_blocks`` blocks of ``warps_per_block`` warps, each executing
    ``repeats`` back-to-back block syncs, on a single SM with residency
    scheduling.

    Blocks beyond the occupancy limit queue and start as residents retire —
    the time-sharing regime of Fig 4's oversubscribed right-hand side.

    With ``engine=None`` a barrier unit that provably never idles is
    folded exactly instead of simulated.  Passing an :class:`Engine`
    always runs the event-precise simulation on it (the oracle the fold is
    tested against); the result then spans the engine's clock advance.
    """
    if warps_per_block < 1 or warps_per_block * spec.warp_size > spec.max_threads_per_block:
        raise ValueError(f"invalid warps_per_block={warps_per_block} for {spec.name}")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    occ = occ_blocks_per_sm(spec, warps_per_block * spec.warp_size)
    resident_cap = max(1, occ.blocks_per_sm)
    resident = min(n_blocks, resident_cap)
    service_ns = spec.cycles_to_ns(spec.block_sync.per_warp_service_cycles)
    latency_ns = spec.cycles_to_ns(block_sync_latency_cycles(spec, warps_per_block))
    n_services = n_blocks * warps_per_block * repeats

    # Saturated: the resident blocks take turns warp by warp, and a round
    # that spans at least (wpb-1)*resident+1 services already outlasts the
    # sync latency, so no block ever waits outside the unit.  Equal waves
    # (n_blocks a multiple of resident) keep every turn filled to the end.
    if (
        engine is None
        and n_blocks % resident == 0
        and _outlasts(
            (warps_per_block - 1) * resident + 1,
            service_ns,
            latency_ns,
            n_services * service_ns,
        )
    ):
        total_ns = _fold(service_ns, n_services)
    else:
        total_ns = _run_block_sync(
            engine or Engine(), resident_cap, warps_per_block, n_blocks,
            repeats, service_ns, latency_ns,
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
    eng: Engine,
    resident_cap: int,
    warps_per_block: int,
    n_blocks: int,
    repeats: int,
    service_ns: float,
    latency_ns: float,
) -> float:
    """Event-precise block-sync run; returns the clock advance (ns)."""
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

    t0 = eng.now
    for b in range(n_blocks):
        eng.process(block_proc(), name=f"block{b}")
    eng.run()
    return eng.now - t0


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


def warp_sync_params(spec: GPUSpec, kind: str, group_size: int) -> tuple[float, float]:
    """(latency, initiation interval) in cycles for a warp-sync op kind.

    The one Table II lookup: ``kind`` is ``"tile"`` or ``"coalesced"``
    for a warp barrier, ``"shuffle_tile"`` or ``"shuffle_coalesced"`` for
    a shuffle; only a coalesced barrier's cost depends on ``group_size``.
    """
    ws = spec.warp_sync
    if kind == "tile":
        return ws.tile_latency, 1.0 / ws.tile_throughput
    if kind == "coalesced":
        if group_size >= spec.warp_size:
            return ws.coalesced_full_latency, 1.0 / ws.coalesced_full_throughput
        return ws.coalesced_partial_latency, 1.0 / ws.coalesced_partial_throughput
    if kind == "shuffle_tile":
        return ws.shuffle_tile_latency, 1.0 / ws.shuffle_tile_throughput
    if kind == "shuffle_coalesced":
        return ws.shuffle_coalesced_latency, 1.0 / ws.shuffle_coalesced_throughput
    raise ValueError(f"unknown warp sync kind {kind!r}")


def simulate_warp_sync_throughput(
    spec: GPUSpec,
    kind: str,
    group_size: int = 32,
    n_warps: int = 64,
    repeats: int = 64,
    engine: Optional[Engine] = None,
) -> WarpSyncThroughputResult:
    """Drive ``n_warps`` warps through ``repeats`` dependent sync ops each.

    Each op occupies the SM's sync pipeline for one initiation interval;
    a warp issues its next op one latency after the previous.  Sustained
    throughput therefore approaches ``min(n_warps/latency, 1/II)`` — the
    paper's "highest result" protocol reaches the ``1/II`` plateau.

    With ``engine=None`` a pipeline that provably never idles is folded
    exactly instead of simulated.  Passing an :class:`Engine` always runs
    the event-precise simulation on it (the oracle the fold is tested
    against); the result then spans the engine's clock advance.
    """
    if n_warps < 1 or repeats < 1:
        raise ValueError("n_warps and repeats must be >= 1")
    latency_cy, ii_cy = warp_sync_params(spec, kind, group_size)
    ii_ns = spec.cycles_to_ns(ii_cy)
    tail_ns = spec.cycles_to_ns(max(0.0, latency_cy - ii_cy))
    n_ops = n_warps * repeats

    # Saturated: a warp leaving the pipe is back after tail_ns, before the
    # other n_warps-1 warps have each held it for one interval.
    if (
        engine is None
        and _outlasts(n_warps - 1, ii_ns, tail_ns, n_ops * ii_ns + tail_ns)
    ):
        # The last warp's final tail ends the run (adding 0.0 changes no bit).
        total_ns = _fold(ii_ns, n_ops) + tail_ns
    else:
        total_ns = _run_warp_sync(engine or Engine(), n_warps, repeats, ii_ns, tail_ns)

    return WarpSyncThroughputResult(
        kind=kind,
        group_size=group_size,
        n_warps=n_warps,
        repeats=repeats,
        total_cycles=spec.ns_to_cycles(total_ns),
        total_ops=n_ops,
    )


def _run_warp_sync(
    eng: Engine, n_warps: int, repeats: int, ii_ns: float, tail_ns: float
) -> float:
    """Event-precise warp-sync pipeline run; returns the clock advance (ns)."""
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

    t0 = eng.now
    for w in range(n_warps):
        eng.process(warp_proc(), name=f"warp{w}")
    eng.run()
    return eng.now - t0
