"""Characterization sweeps: the measured side of Tables II and Figures 4-8.

Every function *measures the simulated machine* through the appropriate
executor — the same division of labour as the paper:

* warp-level latencies: thread-precise executor, one warp, one block
  (Section V-A protocol);
* warp-level throughput: best sustained rate over thread/block
  configurations (Section V-A);
* block sync: warp-count scan on one SM (Fig 4);
* grid / multi-grid sync: full-device barrier protocol over the
  occupancy-legal launch grid (Figs 5/7/8 heat-maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cudasim import instructions as ins
from repro.sim.arch import GPUSpec
from repro.sim.exec_thread import ThreadCtx, WarpExecutor
from repro.sim.node import Node
from repro.sim.occupancy import blocks_per_sm as occ_blocks_per_sm
from repro.sim.sm import simulate_block_sync, simulate_warp_sync_throughput
from repro.sync import GridGroup, MultiGridGroup

__all__ = [
    "measure_warp_sync_latency",
    "measure_shuffle_latency",
    "measure_warp_sync_throughput_best",
    "table2_rows",
    "BlockSyncPoint",
    "block_sync_scan",
    "heatmap_cells",
    "grid_sync_heatmap",
    "multigrid_sync_heatmap",
]

# The paper's heat-map axes (Figs 5/7/8).
_HEATMAP_BLOCKS = (1, 2, 4, 8, 16, 32)
_HEATMAP_THREADS = (32, 64, 128, 256, 512, 1024)


def measure_warp_sync_latency(
    spec: GPUSpec, kind: str = "tile", group_size: int = 32
) -> float:
    """Latency (cycles) of one warp-level sync (the Table II protocol).

    A *coalesced* group consists of the currently-active lanes, so a
    partial coalesced group (size < 32) is formed by running that many
    live threads — which is how V100's slow partial-coalesced path
    (108 cycles vs 14 for the full warp) is exposed.
    """

    def program(ctx: ThreadCtx) -> Generator:
        yield ins.WarpSync(kind=kind, group_size=group_size)

    nthreads = group_size if (kind == "coalesced" and group_size < 32) else 32
    run = WarpExecutor(spec, nthreads=nthreads).run(program)
    return run.duration_cycles


def measure_shuffle_latency(spec: GPUSpec, kind: str = "tile") -> float:
    """Latency (cycles) of one shuffle through a tile or coalesced group."""

    def program(ctx: ThreadCtx) -> Generator:
        yield ins.ShuffleDown(value=float(ctx.tid), delta=16, kind=kind)

    run = WarpExecutor(spec, nthreads=32).run(program)
    return run.duration_cycles


def measure_warp_sync_throughput_best(
    spec: GPUSpec,
    kind: str,
    group_size: int = 32,
    warp_counts: Sequence[int] = (8, 16, 32, 64),
    repeats: int = 64,
) -> float:
    """Best sustained throughput (ops/cycle) over several configurations —
    the Table II protocol ("recording only the highest result")."""
    if not warp_counts:
        raise ValueError("warp_counts must name at least one configuration")
    best = 0.0
    for n_warps in warp_counts:
        r = simulate_warp_sync_throughput(
            spec, kind, group_size, n_warps=n_warps, repeats=repeats
        )
        best = max(best, r.throughput_ops_per_cycle)
    return best


def warp_sync_size_sweep(spec: GPUSpec) -> Dict[str, Dict[int, float]]:
    """Section V-A's exhaustive group-size sweep.

    Tile sizes are the powers of two 1..32; coalesced sizes range 1..32.
    The paper's findings, which the sweep reproduces:

    * tile-group size influences neither latency nor throughput (the
      concurrent tile syncs merge into one instruction);
    * coalesced-group size does not matter on P100, but on V100 only the
      full-warp group takes the fast path.
    """
    tile = {
        size: measure_warp_sync_latency(spec, "tile", size)
        for size in (1, 2, 4, 8, 16, 32)
    }
    coalesced = {
        size: measure_warp_sync_latency(spec, "coalesced", size)
        for size in range(1, 33)
    }
    return {"tile": tile, "coalesced": coalesced}


def table2_rows(spec: GPUSpec) -> Dict[str, Dict[str, float]]:
    """Measure every Table II row on one architecture."""
    rows: Dict[str, Dict[str, float]] = {}
    rows["tile"] = {
        "latency": measure_warp_sync_latency(spec, "tile", 32),
        "throughput": measure_warp_sync_throughput_best(spec, "tile"),
    }
    rows["shuffle_tile"] = {
        "latency": measure_shuffle_latency(spec, "tile"),
        "throughput": measure_warp_sync_throughput_best(spec, "shuffle_tile"),
    }
    rows["coalesced_partial"] = {
        "latency": measure_warp_sync_latency(spec, "coalesced", 16),
        "throughput": measure_warp_sync_throughput_best(spec, "coalesced", 16),
    }
    rows["coalesced_full"] = {
        "latency": measure_warp_sync_latency(spec, "coalesced", 32),
        "throughput": measure_warp_sync_throughput_best(spec, "coalesced", 32),
    }
    rows["shuffle_coalesced"] = {
        "latency": measure_shuffle_latency(spec, "coalesced"),
        "throughput": measure_warp_sync_throughput_best(spec, "shuffle_coalesced"),
    }
    # Block sync from the per-warp perspective: single-warp latency and
    # saturated per-warp throughput (Fig 4 plateau).
    sat = simulate_block_sync(spec, warps_per_block=16, n_blocks=4, repeats=8)
    one = simulate_block_sync(spec, warps_per_block=1, n_blocks=1, repeats=8)
    rows["block_per_warp"] = {
        "latency": one.latency_per_sync_cycles,
        "throughput": sat.per_warp_throughput,
    }
    return rows


@dataclass(frozen=True)
class BlockSyncPoint:
    """One point of the Fig 4 scan."""

    warps_per_sm: int
    active_warps: int
    latency_cycles: float
    per_warp_throughput: float


def block_sync_scan(
    spec: GPUSpec,
    warp_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    repeats: int = 8,
) -> List[BlockSyncPoint]:
    """Fig 4: block-sync latency and per-warp throughput vs warps/SM.

    Beyond the residency limit the extra warps come from queued blocks
    (time-sharing), which is where the latency curve kinks upward while
    throughput stays on its plateau.
    """
    points = []
    for w in warp_counts:
        wpb = min(w, spec.max_threads_per_block // spec.warp_size)
        n_blocks = max(1, w // wpb)
        r = simulate_block_sync(spec, wpb, n_blocks, repeats=repeats)
        points.append(
            BlockSyncPoint(
                warps_per_sm=w,
                active_warps=r.active_warps,
                latency_cycles=r.latency_per_sync_cycles,
                per_warp_throughput=r.per_warp_throughput,
            )
        )
    return points


def heatmap_cells(spec: GPUSpec) -> List[Tuple[int, int]]:
    """The occupancy-legal (blocks/SM, threads/block) cells of Figs 5/7/8.

    A cell exists iff the whole grid can be co-resident — the cooperative
    launch requirement that blanks the upper-right of the paper's tables.
    """
    cells = []
    for b in _HEATMAP_BLOCKS:
        for t in _HEATMAP_THREADS:
            occ = occ_blocks_per_sm(spec, t)
            if b <= occ.blocks_per_sm:
                cells.append((b, t))
    return cells


def grid_sync_heatmap(
    spec: GPUSpec,
    n_syncs: int = 1,
    strategy=None,
    strategy_knobs=None,
) -> Dict[Tuple[int, int], float]:
    """Fig 5: measured grid-sync latency (us) per launch configuration.

    ``strategy``/``strategy_knobs`` select the barrier strategy per cell
    (kind string or instance factory input, see :class:`repro.sync.GridGroup`)
    — ``None`` keeps the cooperative default the paper measures.  Each
    cell's group owns a private engine, so the analytic closed forms
    apply to all of them under the ``auto`` backend.
    """
    out = {}
    for b, t in heatmap_cells(spec):
        r = GridGroup(
            spec, b, t, strategy=strategy, strategy_knobs=strategy_knobs
        ).simulate(n_syncs=n_syncs)
        out[(b, t)] = r.latency_per_sync_us
    return out


def multigrid_sync_heatmap(
    node: Node,
    gpu_ids: Optional[Sequence[int]] = None,
    n_syncs: int = 1,
    strategy=None,
    strategy_knobs=None,
) -> Dict[Tuple[int, int], float]:
    """Figs 7/8: measured multi-grid sync latency (us) per configuration."""
    out = {}
    for b, t in heatmap_cells(node.spec.gpu):
        r = MultiGridGroup(
            node, b, t, gpu_ids=gpu_ids, strategy=strategy,
            strategy_knobs=strategy_knobs,
        ).simulate(n_syncs=n_syncs)
        out[(b, t)] = r.latency_per_sync_us
    return out
