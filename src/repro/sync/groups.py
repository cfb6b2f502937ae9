"""Concrete synchronization scopes: warp, block, grid, multi-grid, host.

Each class binds one level of the paper's scope taxonomy (Figure 2 /
Table VIII) to the shared :class:`~repro.sync.scope.BarrierScope`
machinery, with the level's calibrated costs and its default
:class:`~repro.sync.strategies.BarrierStrategy`:

=============== =========================== ==========================
scope           participants                default strategy
=============== =========================== ==========================
WarpGroup       lanes (<= warp size)        CooperativeBarrier
BlockGroup      warps of one block          CooperativeBarrier over the
                                            SM barrier unit
GridGroup       blocks of one device grid   CooperativeBarrier over the
                                            serialized L2 atomic
MultiGridGroup  GPUs of one multi-device    CooperativeBarrier over the
                launch                      interconnect flag exchange
HostBarrierGroup host threads (one per GPU) CpuBarrier
=============== =========================== ==========================

``GridGroup.simulate()`` and ``MultiGridGroup.simulate()`` return the
``GridSyncResult`` / ``MultiGridSyncResult`` records of
:mod:`repro.sim.device` / :mod:`repro.sim.node`, whose closed-form fits
(``latency_model``) they reproduce structurally.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, Optional, Sequence, Union

from repro.sanitize import events as _sanitize
from repro.sim.arch import GPUSpec
from repro.sim.engine import Engine, Resource, Signal, Timeout
from repro.sim.memory import MemoryChannel
from repro.sim.occupancy import blocks_per_sm as occ_blocks_per_sm
from repro.sim.sm import block_sync_latency_cycles

from repro.sync.scope import BarrierScope
from repro.sync.strategies import (
    STRATEGY_KINDS,
    BarrierStrategy,
    CooperativeBarrier,
    CpuBarrier,
    SoftwareAtomicBarrier,
)

__all__ = [
    "WarpGroup",
    "BlockGroup",
    "GridGroup",
    "MultiGridGroup",
    "HostBarrierGroup",
    "STRATEGY_KNOB_KEYS",
]

# How the grid barrier's calibrated fixed cost splits between the arrive
# and release phases.  The split does not affect totals; it shapes
# intermediate event times.  (Moved verbatim from sim/device.py.)
GRID_ARRIVE_FRACTION = 0.4

#: Per-strategy tuning knobs a scope accepts alongside a strategy *kind*
#: (the ``Scenario`` ``extra.<knob>`` namespace maps straight onto these).
STRATEGY_KNOB_KEYS = ("poll_ns", "poll_read_ns", "workload_util", "atomic_service_ns")

#: A strategy argument: a concrete instance, a registry kind from
#: :data:`~repro.sync.strategies.STRATEGY_KINDS`, or ``None`` (scope default).
StrategyArg = Union[BarrierStrategy, str, None]


class _KnobTracker:
    """Dict-shaped knob view that records which keys a builder consulted.

    ``_resolve_strategy`` uses the read-set to reject knobs the chosen
    (scope, kind) pair never looks at — ``extra.poll_ns`` on a CPU
    barrier must fail loudly, not silently leave the numbers unchanged.
    """

    def __init__(self, knobs: Mapping[str, float]):
        self.knobs = dict(knobs)
        self.read: set = set()

    def get(self, key: str, default: Optional[float] = None) -> Optional[float]:
        self.read.add(key)
        return self.knobs.get(key, default)

    @property
    def unused(self) -> list:
        return sorted(set(self.knobs) - self.read)


def _check_knobs(knobs: Optional[Mapping[str, float]], scope_name: str) -> "_KnobTracker":
    knobs = dict(knobs) if knobs else {}
    unknown = set(knobs) - set(STRATEGY_KNOB_KEYS)
    if unknown:
        raise ValueError(
            f"unknown strategy knob(s) {sorted(unknown)} for {scope_name}; "
            f"valid knobs: {', '.join(STRATEGY_KNOB_KEYS)}"
        )
    return _KnobTracker(knobs)


def _resolve_strategy(
    scope: Any, strategy: StrategyArg, knobs: Optional[Mapping[str, float]]
) -> Optional[BarrierStrategy]:
    """Turn a strategy *kind* into a concrete, scope-calibrated instance.

    ``None`` and ready-made :class:`BarrierStrategy` instances pass
    through untouched (knobs apply only to kind strings — a constructed
    strategy already carries its parameters).  Kind strings dispatch to
    the scope's ``_build_strategy``, which owns the level's calibrated
    costs; unsupported kinds fail loudly with the scope named.
    """
    scope_name = type(scope).__name__
    if strategy is None or isinstance(strategy, BarrierStrategy):
        if knobs:
            raise ValueError(
                f"strategy knobs {sorted(knobs)} apply only to strategy kind "
                f"strings, not to {'the default' if strategy is None else 'a constructed'} "
                f"strategy on {scope_name}"
            )
        return strategy
    if strategy not in STRATEGY_KINDS:
        raise ValueError(
            f"unknown sync strategy {strategy!r}; available: "
            f"{', '.join(STRATEGY_KINDS)}"
        )
    tracker = _check_knobs(knobs, scope_name)
    resolved = scope._build_strategy(strategy, tracker)
    if resolved is None:
        raise ValueError(
            f"strategy {strategy!r} is not supported by {scope_name}"
        )
    if tracker.unused:
        raise ValueError(
            f"strategy knob(s) {tracker.unused} have no effect on "
            f"{scope_name} with strategy {strategy!r}"
        )
    return resolved


class WarpGroup(BarrierScope):
    """Warp-level group (``cg::thread_block_tile`` / coalesced threads).

    Participants are lanes; one sync costs the Table II latency of the
    chosen ``kind`` (``"tile"`` or ``"coalesced"`` — V100 fast-paths the
    full-warp coalesced case).  On Pascal the barrier does not actually
    hold threads (Section VIII-A); :attr:`blocks_all_threads` reports it.
    """

    release_name = "warp-release"
    member_name = "lane{}"

    def __init__(
        self,
        spec: GPUSpec,
        size: int = 32,
        kind: str = "tile",
        engine: Optional[Engine] = None,
        strategy: StrategyArg = None,
        strategy_knobs: Optional[Mapping[str, float]] = None,
        backend: Optional[str] = None,
    ):
        if not (1 <= size <= spec.warp_size):
            raise ValueError(f"warp group size must be in [1, {spec.warp_size}]")
        if kind not in ("tile", "coalesced"):
            raise ValueError(f"unknown warp group kind {kind!r}")
        self.spec = spec
        self.kind = kind
        self._size = size
        super().__init__(
            engine,
            _resolve_strategy(self, strategy, strategy_knobs)
            or self._build_strategy("cooperative", {}),
            backend=backend,
        )

    def _build_strategy(
        self, kind: str, knobs: Mapping[str, float]
    ) -> Optional[BarrierStrategy]:
        if kind != "cooperative":
            return None  # warp barriers have no software/CPU variant
        return CooperativeBarrier(
            expected=self._size,
            release_delay_ns=self.spec.cycles_to_ns(
                self._latency_cycles(self.spec, self.kind, self._size)
            ),
        )

    @staticmethod
    def _latency_cycles(spec: GPUSpec, kind: str, size: int) -> float:
        ws = spec.warp_sync
        if kind == "tile":
            return ws.tile_latency
        if size >= spec.warp_size:
            return ws.coalesced_full_latency
        return ws.coalesced_partial_latency

    @property
    def size(self) -> int:
        return self._size

    @property
    def blocks_all_threads(self) -> bool:
        """Whether this barrier actually holds threads (false on Pascal)."""
        return self.spec.warp_sync.blocking

    def latency_model(self) -> float:
        return self.spec.cycles_to_ns(
            self._latency_cycles(self.spec, self.kind, self._size)
        )


class BlockGroup(BarrierScope):
    """Block-level group (``__syncthreads`` / ``cg::this_thread_block``).

    Participants are the block's warps.  Arrivals drain through the SM's
    barrier unit at one calibrated service interval each (the Fig 4
    throughput plateau); the last arrival pays the residual of the
    single-shot latency ``L(w) = base + per_warp * w`` (Table IV), so an
    uncontended sync costs exactly ``L(w)`` while saturated back-to-back
    syncs are service-bound — the same model as
    :func:`repro.sim.sm.simulate_block_sync`.
    """

    release_name = "block-release"
    member_name = "warp{}"

    def __init__(
        self,
        spec: GPUSpec,
        warps_per_block: int,
        engine: Optional[Engine] = None,
        strategy: StrategyArg = None,
        strategy_knobs: Optional[Mapping[str, float]] = None,
        backend: Optional[str] = None,
    ):
        if warps_per_block < 1:
            raise ValueError("a block has at least one warp")
        if warps_per_block * spec.warp_size > spec.max_threads_per_block:
            raise ValueError(
                f"{warps_per_block} warps exceed {spec.name}'s "
                f"{spec.max_threads_per_block}-thread block limit"
            )
        self.spec = spec
        self.warps_per_block = warps_per_block
        super().__init__(
            engine,
            _resolve_strategy(self, strategy, strategy_knobs)
            or self._build_strategy("cooperative", {}),
            backend=backend,
        )

    def _build_strategy(
        self, kind: str, knobs: Mapping[str, float]
    ) -> Optional[BarrierStrategy]:
        if kind != "cooperative":
            return None  # __syncthreads is always the hardware barrier unit
        spec = self.spec
        service_ns = spec.cycles_to_ns(spec.block_sync.per_warp_service_cycles)
        latency_ns = spec.cycles_to_ns(
            block_sync_latency_cycles(spec, self.warps_per_block)
        )
        return CooperativeBarrier(
            expected=self.warps_per_block,
            release_delay_ns=max(
                0.0, latency_ns - self.warps_per_block * service_ns
            ),
            atomic_service_ns=service_ns,
        )

    @property
    def size(self) -> int:
        return self.warps_per_block

    def latency_model(self) -> float:
        return self.spec.cycles_to_ns(
            block_sync_latency_cycles(self.spec, self.warps_per_block)
        )


class GridGroup(BarrierScope):
    """Device-wide group (``cg::this_grid()``) — the Fig 5 protocol.

    One barrier round is the four-step software protocol CUDA uses under
    a cooperative launch:

    1. every block synchronizes internally (arrive),
    2. one leader warp per block performs a serialized atomic increment
       on an arrival counter in L2 (the default
       :class:`~repro.sync.strategies.CooperativeBarrier`),
    3. the last arrival writes a release flag,
    4. every SM re-dispatches its resident warps, serialized per SM.

    Step 2's serialization over *all* blocks is why grid-sync latency
    tracks blocks/SM much more strongly than threads/block (Fig 5);
    step 4 contributes the weaker per-warp term.  Partial participation
    deadlocks (Section VIII-B).
    """

    release_name = "grid-release"
    member_name = "grid-block{}"

    def __init__(
        self,
        spec: GPUSpec,
        blocks_per_sm: int,
        threads_per_block: int,
        engine: Optional[Engine] = None,
        sm_count: Optional[int] = None,
        strategy: StrategyArg = None,
        strategy_knobs: Optional[Mapping[str, float]] = None,
        backend: Optional[str] = None,
    ):
        if blocks_per_sm < 1:
            raise ValueError("blocks_per_sm must be >= 1")
        occ = occ_blocks_per_sm(spec, threads_per_block)
        if blocks_per_sm > occ.blocks_per_sm:
            raise ValueError(
                f"cooperative grid of {blocks_per_sm} blocks/SM x "
                f"{threads_per_block} threads/block cannot co-reside on {spec.name}"
            )
        self.spec = spec
        self.blocks_per_sm = blocks_per_sm
        self.threads_per_block = threads_per_block
        self.sm_count = sm_count if sm_count is not None else spec.sm_count
        self.warps_per_block = occ.warps_per_block
        self.total_blocks = blocks_per_sm * self.sm_count

        gs = spec.grid_sync
        self._t_arrive = Timeout(gs.base_ns * GRID_ARRIVE_FRACTION)
        self._t_release = Timeout(gs.per_warp_release_ns)
        super().__init__(
            engine,
            _resolve_strategy(self, strategy, strategy_knobs)
            or self._build_strategy("cooperative", {}),
            backend=backend,
        )
        self._release_ports = [
            Resource(self.engine, capacity=1, name=f"sm{j}-release")
            for j in range(self.sm_count)
        ]

    def _build_strategy(
        self, kind: str, knobs: Mapping[str, float]
    ) -> Optional[BarrierStrategy]:
        gs = self.spec.grid_sync

        def service() -> float:
            knob = knobs.get("atomic_service_ns")
            if knob is not None:
                return knob
            return gs.atomic_service_ns(self.blocks_per_sm, self.sm_count)

        if kind == "cooperative":
            return CooperativeBarrier(
                expected=self.total_blocks,
                release_delay_ns=gs.base_ns * (1.0 - GRID_ARRIVE_FRACTION),
                atomic_service_ns=service(),
            )
        if kind == "atomic":
            # The kernel-built barrier: same serialized arrival counter,
            # but release detection is a spin-poll on an L2-homed flag
            # whose reads contend on the L2 port with every other spinner
            # (a plain read costs a fraction of the atomic RMW service).
            svc = service()
            return SoftwareAtomicBarrier(
                expected=self.total_blocks,
                atomic_service_ns=svc,
                poll_ns=knobs.get("poll_ns", 120.0),
                channel=MemoryChannel(
                    read_ns=knobs.get("poll_read_ns", 0.25 * svc),
                    workload_util=knobs.get("workload_util", 0.0),
                    name=f"{self.spec.name}-l2-poll",
                ),
            )
        if kind == "cpu":
            # CPU-side grid sync = end the kernel and relaunch it: every
            # block "arrives" by terminating, and the host pays one
            # traditional launch gap plus the dispatch depth before the
            # grid is running again (the Table I null-kernel pipeline).
            calib = self.spec.launch_calib("traditional")
            return CpuBarrier(
                expected=self.total_blocks,
                cost_ns=calib.gap_for(1) + calib.dispatch_for(1),
            )
        return None  # pragma: no cover - STRATEGY_KINDS is closed

    @property
    def size(self) -> int:
        return self.total_blocks

    def latency_model(self) -> float:
        """Closed-form expected latency of one grid sync (Fig 5 fit)."""
        from repro.sim.device import grid_sync_latency_ns

        return grid_sync_latency_ns(
            self.spec, self.blocks_per_sm, self.threads_per_block
        )

    def arrive(self, member: int, round_index: int) -> Generator:
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_arrive(self, member, round_index, self.engine.now)
        # 1. intra-block arrive + flag write round-trip; 2-3. strategy.
        yield self._t_arrive
        yield from self.strategy.arrive(self.round_state(round_index))

    def wait(self, member: int, round_index: int) -> Generator:
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_wait(self, member, round_index, self.engine.now)
        yield from self.strategy.wait(self.round_state(round_index))
        # 4. warp re-dispatch, serialized per SM.
        port = self._release_ports[member % self.sm_count]
        for _ in range(self.warps_per_block):
            yield port.acquire()
            yield self._t_release
            port.release()
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_wait_return(self, member, round_index, self.engine.now)

    def simulate(
        self,
        n_syncs: int = 1,
        participating_blocks: Optional[int] = None,
    ) -> "GridSyncResult":
        """Run ``n_syncs`` grid barriers; returns the classic result record.

        ``participating_blocks`` short of the grid size leaves the
        arrival counter short and raises
        :class:`~repro.sim.engine.DeadlockError`.
        """
        from repro.sim.device import GridSyncResult

        participants = (
            self.total_blocks
            if participating_blocks is None
            else participating_blocks
        )
        if not (0 < participants <= self.total_blocks):
            raise ValueError("participating_blocks must be in (0, total_blocks]")
        run = self.run_rounds(
            n_syncs, members=range(participants), collect_trace=False
        )
        return GridSyncResult(
            blocks_per_sm=self.blocks_per_sm,
            threads_per_block=self.threads_per_block,
            total_blocks=self.total_blocks,
            warps_per_sm=self.blocks_per_sm * self.warps_per_block,
            n_syncs=n_syncs,
            total_ns=run.total_ns,
        )


class MultiGridGroup(BarrierScope):
    """Multi-device group (``cg::this_multi_grid()``) — Figs 7/8.

    One barrier round has two phases: a **local phase** per GPU
    (structurally the grid barrier but with system-scope fences, so every
    per-block and per-warp cost is heavier) and a **cross-GPU phase**
    whose cost depends on the interconnect topology — on the DGX-1
    cube-mesh any two-hop member forces flag traffic through an
    intermediate GPU, creating the paper's 2-5 vs 6-8 GPU plateaus.

    Partial participation — a missing GPU, or ``full_local_participation
    = False`` modelling a missing block inside one GPU — hangs the
    barrier (Section VIII-B).
    """

    release_name = "mgrid-release"
    member_name = "mgrid-gpu{}"

    def __init__(
        self,
        node: "Node",
        blocks_per_sm: int,
        threads_per_block: int,
        gpu_ids: Optional[Sequence[int]] = None,
        engine: Optional[Engine] = None,
        strategy: StrategyArg = None,
        strategy_knobs: Optional[Mapping[str, float]] = None,
        full_local_participation: bool = True,
        backend: Optional[str] = None,
    ):
        from repro.sim.node import cross_gpu_latency_ns, multigrid_local_latency_ns

        ids = tuple(gpu_ids) if gpu_ids is not None else tuple(range(node.gpu_count))
        if not ids:
            raise ValueError("gpu_ids must not be empty")
        repeated = sorted({g for g in ids if ids.count(g) > 1})
        if repeated:
            raise ValueError(f"gpu_ids repeat GPU(s) {repeated}: {list(ids)}")
        for g in ids:
            node.device(g)  # validates range
        self.node = node
        self.gpu_ids = ids
        self.blocks_per_sm = blocks_per_sm
        self.threads_per_block = threads_per_block
        self.full_local_participation = full_local_participation

        self.local_ns = multigrid_local_latency_ns(
            node.spec, blocks_per_sm, threads_per_block
        )
        self.cross_ns = cross_gpu_latency_ns(
            node.spec, node.interconnect, ids, blocks_per_sm
        )
        arrive_ns = 0.5 * self.local_ns
        self._t_arrive = Timeout(arrive_ns)
        self._t_release_local = Timeout(self.local_ns - arrive_ns)
        super().__init__(
            engine,
            _resolve_strategy(self, strategy, strategy_knobs)
            or self._build_strategy("cooperative", {}),
            backend=backend,
        )

    def _build_strategy(
        self, kind: str, knobs: Mapping[str, float]
    ) -> Optional[BarrierStrategy]:
        ids = self.gpu_ids
        if kind == "cooperative":
            return CooperativeBarrier(
                expected=len(ids), release_delay_ns=self.cross_ns
            )
        if kind == "atomic":
            # Software multi-device barrier: each GPU's leader block does a
            # remote atomic RMW on a flag homed on the leader GPU (one link
            # latency of serialized service per arrival), then spin-polls
            # it over the interconnect.  The poll reads are offered load on
            # the flag-home link, and remote members additionally pay
            # their hop distance per read — so detection lag carries the
            # topology (cube-mesh two-hop members, ring staircase) as well
            # as the participant count and any injected workload traffic.
            ic = self.node.interconnect
            link = ic.link
            leader = min(ids)
            others = [m for m in ids if m != leader]
            mean_hops = (
                sum(ic.hops(leader, m) for m in others) / len(others)
                if others
                else 0.0
            )
            return SoftwareAtomicBarrier(
                expected=len(ids),
                atomic_service_ns=knobs.get("atomic_service_ns", link.latency_ns),
                poll_ns=knobs.get("poll_ns", 2.0 * link.latency_ns),
                channel=MemoryChannel(
                    read_ns=knobs.get("poll_read_ns", 0.5 * link.latency_ns),
                    workload_util=knobs.get("workload_util", 0.0),
                    name=f"{ic.name}-flag-link",
                ),
                flag_rtt_ns=mean_hops * link.latency_ns,
            )
        if kind == "cpu":
            # Fig 6 pattern priced at this group's width: one host thread
            # per participating GPU meets at the node's OpenMP barrier.
            return CpuBarrier(
                expected=len(ids),
                cost_ns=self.node.spec.omp_barrier_ns(len(ids)),
            )
        return None  # pragma: no cover - STRATEGY_KINDS is closed

    @property
    def size(self) -> int:
        return len(self.gpu_ids)

    def latency_model(self) -> float:
        """Closed-form: local phase + topology-dependent cross phase."""
        return self.local_ns + self.cross_ns

    def arrive(self, member: int, round_index: int) -> Generator:
        yield self._t_arrive
        if not self.full_local_participation:
            # A block inside this GPU never arrived: the local grid phase
            # can never finish, so this GPU never reports.  (No arrive
            # event either: this member never reaches the counter, which
            # is exactly what the divergence check should see.)
            yield Signal(self.engine, name=f"gpu{member}-stuck-local")
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_arrive(self, member, round_index, self.engine.now)
        yield from self.strategy.arrive(self.round_state(round_index))

    def wait(self, member: int, round_index: int) -> Generator:
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_wait(self, member, round_index, self.engine.now)
        yield from self.strategy.wait(self.round_state(round_index))
        yield self._t_release_local
        if _sanitize.MONITOR is not None:
            _sanitize.MONITOR.on_wait_return(self, member, round_index, self.engine.now)

    def simulate(
        self,
        n_syncs: int = 1,
        participating_gpus: Optional[Sequence[int]] = None,
    ) -> "MultiGridSyncResult":
        """Run ``n_syncs`` multi-grid barriers across the group's GPUs.

        ``participating_gpus`` must be a subset of the group's
        ``gpu_ids``; a strict subset deadlocks (Section VIII-B).
        """
        from repro.sim.node import MultiGridSyncResult

        if n_syncs < 1:
            raise ValueError("n_syncs must be >= 1")
        arrivals_expected = set(self.gpu_ids)
        callers = (
            set(participating_gpus)
            if participating_gpus is not None
            else arrivals_expected
        )
        if not callers <= arrivals_expected:
            raise ValueError("participating_gpus must be a subset of gpu_ids")
        run = self.run_rounds(
            n_syncs, members=sorted(callers), collect_trace=False
        )
        return MultiGridSyncResult(
            gpu_ids=self.gpu_ids,
            blocks_per_sm=self.blocks_per_sm,
            threads_per_block=self.threads_per_block,
            n_syncs=n_syncs,
            total_ns=run.total_ns,
            local_ns=self.local_ns,
            cross_ns=self.cross_ns,
        )


class HostBarrierGroup(BarrierScope):
    """CPU-side barrier across host threads (the paper's Fig 6 pattern).

    The third multi-device method: one pinned host thread per GPU meets
    at an OpenMP-style barrier whose cost follows the node's calibrated
    model.  :class:`~repro.host.openmp.OmpTeam` runs its rendezvous
    through this scope; :meth:`barrier` keeps that call-site contract
    (per-thread implicit round counting — mismatched call counts
    deadlock, as in real OpenMP).
    """

    release_name = "omp-barrier"
    member_name = "host{}"

    def __init__(
        self,
        n_threads: int,
        cost_ns: float,
        engine: Optional[Engine] = None,
        strategy: StrategyArg = None,
        strategy_knobs: Optional[Mapping[str, float]] = None,
        backend: Optional[str] = None,
    ):
        if n_threads < 1:
            raise ValueError("team needs at least one thread")
        self.n_threads = n_threads
        self.cost_ns = float(cost_ns)
        super().__init__(
            engine,
            _resolve_strategy(self, strategy, strategy_knobs)
            or self._build_strategy("cpu", {}),
            backend=backend,
        )
        self._counters: dict = {}

    def _build_strategy(
        self, kind: str, knobs: Mapping[str, float]
    ) -> Optional[BarrierStrategy]:
        if kind != "cpu":
            return None  # host threads rendezvous only at the OpenMP barrier
        return CpuBarrier(expected=self.n_threads, cost_ns=self.cost_ns)

    @property
    def size(self) -> int:
        return self.n_threads

    def latency_model(self) -> float:
        return self.cost_ns

    def barrier(self, tid: int) -> Generator:
        """One rendezvous round for thread ``tid``, rounds counted
        implicitly per thread (the ``#pragma omp barrier`` contract)."""
        if not (0 <= tid < self.n_threads):
            raise ValueError(f"tid {tid} out of range [0,{self.n_threads})")
        idx = self._counters.get(tid, 0)
        self._counters[tid] = idx + 1
        yield from self.sync(tid, idx)
