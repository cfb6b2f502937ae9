"""The paper's primary contribution: synchronization characterization,
cooperative-groups API, performance model, and pitfall analyses.

Every name below is imported from its defining module on first access
(:func:`repro.lazy_getattr`), so importing one submodule, as a
``--tags sync`` run imports :mod:`~repro.core.characterize`, loads none
of its siblings.  Code under ``src`` imports from the defining module.
"""

from repro import lazy_getattr

# Public name -> the module it is imported from on first access.
_EXPORTS = {
    "SyncAdvice": "repro.core.advisor",
    "advise_warp": "repro.core.advisor",
    "advise_block": "repro.core.advisor",
    "advise_device": "repro.core.advisor",
    "advise_multi_gpu": "repro.core.advisor",
    "KernelEnv": "repro.core.groups",
    "tiled_partition": "repro.core.groups",
    "coalesced_threads": "repro.core.groups",
    "this_thread_block": "repro.core.groups",
    "this_grid": "repro.core.groups",
    "this_multi_grid": "repro.core.groups",
    "VALID_TILE_SIZES": "repro.core.groups",
    "measure_warp_sync_latency": "repro.core.characterize",
    "measure_shuffle_latency": "repro.core.characterize",
    "measure_warp_sync_throughput_best": "repro.core.characterize",
    "table2_rows": "repro.core.characterize",
    "BlockSyncPoint": "repro.core.characterize",
    "block_sync_scan": "repro.core.characterize",
    "heatmap_cells": "repro.core.characterize",
    "grid_sync_heatmap": "repro.core.characterize",
    "multigrid_sync_heatmap": "repro.core.characterize",
    "WorkerConfig": "repro.core.perfmodel",
    "SwitchingPoints": "repro.core.perfmodel",
    "little_concurrency": "repro.core.perfmodel",
    "completion_time_cycles": "repro.core.perfmodel",
    "switching_points": "repro.core.perfmodel",
    "choose_workers": "repro.core.perfmodel",
    "scenario_sync_cycles": "repro.core.perfmodel",
    "table3_rows": "repro.core.perfmodel",
    "table4_rows": "repro.core.perfmodel",
    "WarpBlockingTrace": "repro.core.pitfalls",
    "warp_sync_blocking_trace": "repro.core.pitfalls",
    "shuffle_divergent_works": "repro.core.pitfalls",
    "DeadlockMatrix": "repro.core.pitfalls",
    "partial_sync_deadlock_matrix": "repro.core.pitfalls",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
