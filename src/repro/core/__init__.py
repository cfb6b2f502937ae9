"""The paper's primary contribution: synchronization characterization,
cooperative-groups API, performance model, and pitfall analyses."""

from repro.core.advisor import (
    SyncAdvice,
    advise_block,
    advise_device,
    advise_multi_gpu,
    advise_warp,
)
from repro.core.characterize import (
    BlockSyncPoint,
    block_sync_scan,
    grid_sync_heatmap,
    heatmap_cells,
    measure_shuffle_latency,
    measure_warp_sync_latency,
    measure_warp_sync_throughput_best,
    multigrid_sync_heatmap,
    table2_rows,
)
from repro.core.groups import (
    VALID_TILE_SIZES,
    KernelEnv,
    coalesced_threads,
    this_grid,
    this_multi_grid,
    this_thread_block,
    tiled_partition,
)
from repro.core.perfmodel import (
    SwitchingPoints,
    WorkerConfig,
    choose_workers,
    completion_time_cycles,
    little_concurrency,
    scenario_sync_cycles,
    switching_points,
    table3_rows,
    table4_rows,
)
from repro.core.pitfalls import (
    DeadlockMatrix,
    WarpBlockingTrace,
    partial_sync_deadlock_matrix,
    shuffle_divergent_works,
    warp_sync_blocking_trace,
)

__all__ = [
    # advisor
    "SyncAdvice",
    "advise_warp",
    "advise_block",
    "advise_device",
    "advise_multi_gpu",
    # groups
    "KernelEnv",
    "tiled_partition",
    "coalesced_threads",
    "this_thread_block",
    "this_grid",
    "this_multi_grid",
    "VALID_TILE_SIZES",
    # characterization
    "measure_warp_sync_latency",
    "measure_shuffle_latency",
    "measure_warp_sync_throughput_best",
    "table2_rows",
    "BlockSyncPoint",
    "block_sync_scan",
    "heatmap_cells",
    "grid_sync_heatmap",
    "multigrid_sync_heatmap",
    # performance model
    "WorkerConfig",
    "SwitchingPoints",
    "little_concurrency",
    "completion_time_cycles",
    "switching_points",
    "choose_workers",
    "scenario_sync_cycles",
    "table3_rows",
    "table4_rows",
    # pitfalls
    "WarpBlockingTrace",
    "warp_sync_blocking_trace",
    "shuffle_divergent_works",
    "DeadlockMatrix",
    "partial_sync_deadlock_matrix",
]
