"""Experiment E-T8: the qualitative observation summary (Table VIII).

Each of the paper's closing observations is re-derived from fresh
measurements on the scenario's machines and reported pass/fail.  The
Volta/Pascal contrasts need a scenario naming one GPU of each kind (the
paper default); architecture-specific checks degrade gracefully when a
scenario narrows the GPU set.
"""

from __future__ import annotations

from typing import Optional

from repro.core.characterize import block_sync_scan
from repro.core.pitfalls import partial_sync_deadlock_matrix, warp_sync_blocking_trace
from repro.experiments.base import ExperimentReport
from repro.experiments.scenario import PAPER_SCENARIO, Scenario
from repro.reduction.warp import table5_rows
from repro.sim.device import grid_sync_latency_ns
from repro.sync import MultiGridGroup

__all__ = ["run_summary"]


def run_summary(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Re-verify every Table VIII observation."""
    scenario = scenario or PAPER_SCENARIO
    specs = scenario.gpu_specs()
    voltas = [s for s in specs if s.independent_thread_scheduling]
    pascals = [s for s in specs if not s.independent_thread_scheduling]
    report = ExperimentReport("table8", "Summary of observations (Table VIII)")

    def check(label: str, ok: bool, note: str = "") -> None:
        report.add(label, 1.0, 1.0 if ok else 0.0, "bool", note=note)

    # Warp level: does not block on Pascal; shuffle is the better performer
    # in real code (Table V).
    if voltas and pascals:
        check(
            "warp sync does not block on Pascal",
            not warp_sync_blocking_trace(pascals[0]).blocks_all_threads
            and warp_sync_blocking_trace(voltas[0]).blocks_all_threads,
        )
    t5 = {spec.name: table5_rows(spec) for spec in specs}
    correct_methods = [
        m
        for m, v in next(iter(t5.values())).items()
        if v["correct"] and m != "serial"
    ]
    check(
        "shuffle performs best in real code",
        all(
            rows["tile_shuffle"]["latency_cycles"] <= rows[m]["latency_cycles"]
            for rows in t5.values()
            for m in correct_methods
        ),
    )

    # Block sync: performance tracks active warps/SM.
    for spec in specs:
        pts = block_sync_scan(spec, warp_counts=(1, 8, 32, 64))
        rising = all(
            pts[i].per_warp_throughput <= pts[i + 1].per_warp_throughput * 1.01
            for i in range(len(pts) - 1)
        )
        check(f"{spec.name} block sync throughput rises with active warps", rising)

    # Grid sync: blocks/SM dominates; <= 2 blocks/SM keeps the cost within
    # ~2.5 us of the launch overhead (the paper's acceptability bound).
    for spec in specs:
        t1 = grid_sync_latency_ns(spec, 1, 32)
        t2 = grid_sync_latency_ns(spec, 2, 1024)
        overhead = spec.launch_calib("traditional").gap_ns + spec.launch_calib(
            "traditional"
        ).exec_null_ns
        check(
            f"{spec.name} grid sync acceptable at <=2 blocks/SM",
            (t2 - overhead) <= 2600.0,
            note=f"gap vs launch overhead: {(t2 - overhead)/1e3:.2f} us",
        )
        check(f"{spec.name} grid sync slower than launch overhead", t1 > overhead)

    # Multi-grid: both blocks/SM and warps/SM matter; <=1024 thr/SM and
    # <=8 blocks/SM stays within the paper's "acceptable" envelope
    # (no more than 2x the fastest config, other than the 1-GPU case).
    node = scenario.build_node()
    fastest = MultiGridGroup(node, 1, 32).simulate().latency_per_sync_us
    ok_env = True
    for b, t in ((1, 1024), (2, 512), (4, 256), (8, 128)):
        v = MultiGridGroup(node, b, t).simulate().latency_per_sync_us
        ok_env &= v <= 2.0 * fastest
    check("multi-grid acceptable when thr/SM<=1024 and blk/SM<=8", ok_env)

    # Deadlock rows (architecture-independent; probe a Volta if available).
    probe = voltas[0] if voltas else specs[0]
    m = partial_sync_deadlock_matrix(probe).as_dict()
    check(
        "partial grid/multi-grid sync deadlocks (and only those)",
        m["grid"] and m["multigrid_blocks"] and m["multigrid_gpus"]
        and not m["warp"] and not m["block"],
    )
    return report
