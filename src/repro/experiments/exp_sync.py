"""Experiments E-T2 (Table II), E-F4, E-F5, E-F7, E-F8: sync characterization.

Every driver takes a :class:`~repro.experiments.scenario.Scenario`; the
paper's machines are only the *default* scenario, so the registry can sweep
the same protocols over other GPU subsets, counts and topologies.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.characterize import (
    block_sync_scan,
    grid_sync_heatmap,
    multigrid_sync_heatmap,
    table2_rows,
)
from repro.experiments.base import ExperimentReport
from repro.experiments.paper_data import (
    FIG5_GRID_SYNC_US,
    FIG7_MULTIGRID_P100_US,
    FIG8_MULTIGRID_V100_US,
    FIG9_US,
    TABLE2,
)
from repro.experiments.scenario import (
    FIG7_SCENARIO,
    PAPER_SCENARIO,
    SYNC_METHODS_SCENARIOS,
    Scenario,
)
from repro.viz.heatmap import render_heatmap, render_heatmap_pair
from repro.viz.tables import render_table

__all__ = [
    "run_table2",
    "run_fig4",
    "run_fig5",
    "run_fig7",
    "run_fig8",
    "run_sync_methods",
]


def _strategy_args(scenario: Scenario):
    """(strategy, knobs) the sync scopes take — ``(None, None)`` by default.

    Knobs apply only alongside a ``sync_strategy`` kind, so a scenario
    carrying unrelated extras under the default strategy stays on the
    byte-identical cooperative path.
    """
    if scenario.sync_strategy is None:
        return None, None
    return scenario.sync_strategy, scenario.sync_knobs()


def anchors_apply(scenario: Scenario) -> bool:
    """Whether the paper's published numbers gate this scenario's sync runs.

    The anchors are cooperative-launch measurements with stock
    calibration, so an *explicit* ``sync_strategy=cooperative`` (which
    resolves to the byte-identical default strategy) keeps the tolerance
    gate; any other strategy — or any strategy knob override — measures
    something the paper did not publish.
    """
    if scenario.sync_strategy is None:
        # Knobs ride along only with a strategy kind; without one the
        # drivers run the untouched default path.
        return True
    return scenario.sync_strategy == "cooperative" and not scenario.sync_knobs()


def _non_default_strategy_note(scenario: Scenario) -> str:
    knobs = scenario.sync_knobs()
    what = f"sync_strategy={scenario.sync_strategy or 'cooperative'}"
    if knobs:
        what += " with knobs " + ", ".join(f"{k}={v}" for k, v in sorted(knobs.items()))
    return (
        f"measured under {what}; paper anchors (published for the stock "
        "cooperative launch) suppressed, so the tolerance gate does not apply"
    )


def run_table2(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Table II: warp-level sync latency and throughput."""
    scenario = scenario or PAPER_SCENARIO
    report = ExperimentReport("table2", "Warp-level synchronization (V100 + P100)")
    for spec in scenario.gpu_specs():
        measured = table2_rows(spec)
        for row, vals in measured.items():
            paper = TABLE2[spec.name][row]
            report.add(
                f"{spec.name} {row} latency", paper["latency"], vals["latency"], "cyc"
            )
            report.add(
                f"{spec.name} {row} throughput",
                paper["throughput"],
                vals["throughput"],
                "op/cyc",
            )
    report.notes.append(
        "P100 warp sync latencies of ~1 cycle reflect that Pascal does not "
        "block threads at warp barriers (Section VIII-A)"
    )
    return report


def run_fig4(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Fig 4: block-sync latency and per-warp throughput vs warps/SM."""
    scenario = scenario or PAPER_SCENARIO
    report = ExperimentReport("fig4", "Block synchronization scaling")
    for spec in scenario.gpu_specs():
        points = block_sync_scan(spec)
        sat_paper = TABLE2[spec.name]["block_per_warp"]["throughput"]
        sat_measured = max(p.per_warp_throughput for p in points)
        report.add(
            f"{spec.name} saturated per-warp throughput",
            sat_paper,
            sat_measured,
            "warp-sync/cyc",
        )
        # The plateau must be reached at (or before) the residency limit and
        # hold through oversubscription.
        at_limit = next(p for p in points if p.warps_per_sm == spec.max_warps_per_sm)
        over = [p for p in points if p.warps_per_sm > spec.max_warps_per_sm]
        plateau_holds = all(
            abs(p.per_warp_throughput - sat_measured) / sat_measured < 0.05
            for p in over
        )
        report.add(
            f"{spec.name} throughput at {spec.max_warps_per_sm} warps/SM",
            sat_paper,
            at_limit.per_warp_throughput,
            "warp-sync/cyc",
        )
        report.notes.append(
            f"{spec.name}: plateau holds under oversubscription: {plateau_holds}; "
            "latency grows linearly past the residency limit "
            f"({over[0].latency_cycles:.0f} -> {over[-1].latency_cycles:.0f} cycles)"
        )
        report.add_artifact(
            render_table(
                ["warps/SM", "active", "latency (cyc)", "thr (warp-sync/cyc)"],
                [
                    [p.warps_per_sm, p.active_warps, p.latency_cycles, p.per_warp_throughput]
                    for p in points
                ],
                title=f"Fig 4 scan - {spec.name}",
                precision=3,
            )
        )
    return report


def _heatmap_report(
    exp_id: str,
    title: str,
    measured: Dict[Tuple[int, int], float],
    paper: Dict[Tuple[int, int], float],
    label: str,
) -> ExperimentReport:
    report = ExperimentReport(exp_id, title)
    errs = []
    for cell, pv in paper.items():
        mv = measured.get(cell)
        if mv is not None:
            errs.append(abs(mv - pv) / pv)
    # Headline cells in the comparison table; full grids as artifacts.
    for cell in sorted(paper):
        b, t = cell
        if (b, t) in ((1, 32), (1, 1024), (2, 32), (8, 256), (32, 32), (32, 64)):
            if cell in measured:
                report.add(f"{label} ({b} blk/SM, {t} thr)", paper[cell], measured[cell], "us")
    if paper:
        report.add_artifact(render_heatmap_pair(measured, paper, title=label))
    else:
        # Non-default strategy: no published grid to compare against.
        report.add_artifact(render_heatmap(measured, f"{label} - measured (us)"))
    if errs:
        report.notes.append(
            f"full-grid relative error: mean {sum(errs)/len(errs):.1%}, "
            f"max {max(errs):.1%} over {len(errs)} cells"
        )
    return report


def run_fig5(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Fig 5: grid-sync latency heat-maps."""
    scenario = scenario or PAPER_SCENARIO
    strategy, knobs = _strategy_args(scenario)
    specs = scenario.gpu_specs()

    def paper_for(spec):
        # Published grids hold for the stock cooperative launch only.
        if not anchors_apply(scenario):
            return {}
        return FIG5_GRID_SYNC_US.get(spec.name, {})

    if len(specs) == 1:
        spec = specs[0]
        report = _heatmap_report(
            "fig5", f"Grid synchronization heat-map ({spec.name})",
            grid_sync_heatmap(spec, strategy=strategy, strategy_knobs=knobs),
            paper_for(spec), spec.name,
        )
    else:
        report = ExperimentReport("fig5", "Grid synchronization heat-maps")
        for spec in specs:
            sub = _heatmap_report(
                "fig5", "",
                grid_sync_heatmap(spec, strategy=strategy, strategy_knobs=knobs),
                paper_for(spec), spec.name,
            )
            report.rows.extend(sub.rows)
            report.artifacts.extend(sub.artifacts)
            report.notes.extend(sub.notes)
    if not anchors_apply(scenario):
        report.notes.append(_non_default_strategy_note(scenario))
    report.notes.append(
        "grid sync latency tracks blocks/SM (atomic serialization), weakly "
        "threads/block; cells blank where the grid cannot co-reside"
    )
    return report


def run_fig7(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Fig 7: multi-grid sync on the dual-P100 PCIe platform."""
    scenario = scenario or FIG7_SCENARIO
    strategy, knobs = _strategy_args(scenario)
    gpu_name = scenario.node_spec().gpu.name
    report = ExperimentReport("fig7", "Multi-grid synchronization (P100 x PCIe)")
    for n in scenario.sweep_counts(sorted(FIG7_MULTIGRID_P100_US)):
        node = scenario.build_node(gpu_count=max(n, 1))
        measured = multigrid_sync_heatmap(
            node, gpu_ids=range(n), strategy=strategy, strategy_knobs=knobs
        )
        paper = (
            FIG7_MULTIGRID_P100_US.get(n, {}) if anchors_apply(scenario) else {}
        )
        sub = _heatmap_report("fig7", "", measured, paper, f"{gpu_name} x{n}")
        report.rows.extend(sub.rows)
        report.artifacts.extend(sub.artifacts)
        report.notes.extend(sub.notes)
    if not anchors_apply(scenario):
        report.notes.append(_non_default_strategy_note(scenario))
    report.notes.append(
        "PCIe cross-GPU phase adds ~6 us versus ~5 us on NVLink (Fig 8)"
    )
    return report


def run_fig8(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Fig 8: multi-grid sync on the DGX-1 for the published GPU counts."""
    scenario = scenario or PAPER_SCENARIO
    counts = scenario.sweep_counts((1, 2, 5, 6, 8))
    strategy, knobs = _strategy_args(scenario)
    report = ExperimentReport("fig8", "Multi-grid synchronization (V100 DGX-1)")
    node = scenario.build_node()
    gpu_name = node.spec.gpu.name
    for n in counts:
        paper = (
            FIG8_MULTIGRID_V100_US.get(n, {}) if anchors_apply(scenario) else {}
        )
        measured = multigrid_sync_heatmap(
            node, gpu_ids=range(n), strategy=strategy, strategy_knobs=knobs
        )
        sub = _heatmap_report("fig8", "", measured, paper, f"{gpu_name} x{n}")
        report.rows.extend(sub.rows)
        report.artifacts.extend(sub.artifacts)
        report.notes.extend(sub.notes)
    if not anchors_apply(scenario):
        report.notes.append(_non_default_strategy_note(scenario))
    report.notes.append(
        "2-5 GPUs sit on one plateau (all 1 NVLink hop from GPU 0); adding "
        "GPU 5/6/7 forces 2-hop flag traffic and the latency jump"
    )
    return report


# ---------------------------------------------------------------------------
# Strategy-sweep experiment: the paper's three multi-device methods priced
# per barrier round on one node, across GPU counts.

# Launch configuration of the swept barrier (Fig 9's fastest multi-grid
# series); override with extra.blocks_per_sm / extra.threads_per_block.
_SYNC_METHODS_CONFIG = (1, 32)

# Injected workload-traffic levels for the atomic barrier's contention
# scan (fraction of the flag channel consumed by workload memory traffic).
_WORKLOAD_SWEEP = (0.0, 0.25, 0.5, 0.75)


def _crossovers(counts, series) -> list:
    """GPU counts where the per-round ranking of two methods flips."""
    out = []
    names = sorted(series)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for prev_n, n in zip(counts, counts[1:]):
                prev_cmp = series[a][counts.index(prev_n)] - series[b][counts.index(prev_n)]
                cur_cmp = series[a][counts.index(n)] - series[b][counts.index(n)]
                if prev_cmp * cur_cmp < 0:
                    out.append((a, b, n))
    return out


def run_sync_methods(scenario: Optional[Scenario] = None) -> ExperimentReport:
    """Strategy sweep: cooperative vs atomic vs CPU barrier per GPU count.

    Every method runs through the *same* :class:`~repro.sync.MultiGridGroup`
    scope — only the pluggable strategy (and therefore the counting/release
    physics) changes — so the curves isolate the method cost the paper's
    Figs 8/9 discussion attributes to each mechanism.  The atomic software
    barrier runs under the contention model: its spin-poll flag reads are
    offered load on the interconnect flag link, so its round latency grows
    with participant count and with injected workload traffic
    (``extra.workload_util``), which the second artifact scans directly.

    ``sync_strategy`` restricts the sweep to one method; the default sweeps
    all three.  Paper anchors (the Fig 7/8/9 cooperative-launch points)
    gate the cooperative series on unmodified topologies only.
    """
    from repro.sync import MultiGridGroup
    from repro.sync.strategies import STRATEGY_KINDS

    scenario = scenario or SYNC_METHODS_SCENARIOS[0]
    node_spec = scenario.node_spec()
    counts = scenario.sweep_counts(tuple(range(1, node_spec.gpu_count + 1)))
    strategies = (
        (scenario.sync_strategy,) if scenario.sync_strategy else STRATEGY_KINDS
    )
    knobs = scenario.sync_knobs()
    b = scenario.extra_int("blocks_per_sm", _SYNC_METHODS_CONFIG[0])
    t = scenario.extra_int("threads_per_block", _SYNC_METHODS_CONFIG[1])

    report = ExperimentReport(
        "sync_methods",
        "Multi-device synchronization methods: strategy sweep",
    )
    node = scenario.build_node()
    series: Dict[str, list] = {}
    for kind in strategies:
        # Contention knobs tune the atomic barrier; the cooperative and
        # CPU builders read none of them (and reject unused knobs), so
        # they ride along only on the atomic series.
        kind_knobs = knobs if kind == "atomic" else None
        series[kind] = [
            MultiGridGroup(
                node, b, t, gpu_ids=range(n), strategy=kind,
                strategy_knobs=kind_knobs,
            )
            .simulate()
            .latency_per_sync_us
            for n in counts
        ]

    # Paper anchors: the cooperative series *is* the published multi-grid
    # sync (Figs 7/8/9), valid only on an unmodified paper topology with
    # stock calibration.
    stock_topology = (
        scenario.interconnect is None
        and scenario.gpu_count is None
        and not knobs
        and (b, t) == _SYNC_METHODS_CONFIG
    )
    if "cooperative" in series and stock_topology:
        anchors: Dict[int, float] = {}
        if scenario.node == "DGX1":
            for n in counts:
                cell = FIG8_MULTIGRID_V100_US.get(n, {}).get(_SYNC_METHODS_CONFIG)
                if cell is not None:
                    anchors[n] = cell
            # Fig 9 anchors fill counts Fig 8's tables do not publish.
            for n, v in FIG9_US["mgrid_fastest"].items():
                anchors.setdefault(n, v)
        elif scenario.node == "P100x2":
            for n in counts:
                cell = FIG7_MULTIGRID_P100_US.get(n, {}).get(_SYNC_METHODS_CONFIG)
                if cell is not None:
                    anchors[n] = cell
        for n in counts:
            paper_val = anchors.get(n)
            if paper_val is not None:
                report.add(
                    f"cooperative @ {n} GPU",
                    paper_val,
                    series["cooperative"][counts.index(n)],
                    "us",
                )

    report.add_artifact(
        render_table(
            ["GPUs"] + [f"{k} (us)" for k in strategies],
            [
                [n] + [series[k][i] for k in strategies]
                for i, n in enumerate(counts)
            ],
            title=(
                f"Per-round barrier latency - {node_spec.gpu.name} x "
                f"{node.interconnect.name} ({b} blk/SM, {t} thr)"
            ),
            precision=3,
        )
    )

    # Contention scan: the atomic barrier at full width under increasing
    # injected workload traffic on the flag channel.
    if "atomic" in strategies:
        n_max = max(counts)
        scan = []
        for util in _WORKLOAD_SWEEP:
            scan_knobs = dict(knobs)
            scan_knobs["workload_util"] = util
            lat = (
                MultiGridGroup(
                    node, b, t, gpu_ids=range(n_max),
                    strategy="atomic", strategy_knobs=scan_knobs,
                )
                .simulate()
                .latency_per_sync_us
            )
            scan.append([util, lat])
        report.add_artifact(
            render_table(
                ["workload_util", f"atomic @ {n_max} GPUs (us)"],
                scan,
                title="Atomic barrier under injected workload traffic",
                precision=3,
            )
        )
        grows_with_n = all(
            x < y for x, y in zip(series["atomic"], series["atomic"][1:])
        )
        grows_with_load = all(x[1] < y[1] for x, y in zip(scan, scan[1:]))
        report.notes.append(
            f"atomic round latency monotone in participant count: {grows_with_n}; "
            f"monotone in injected workload traffic: {grows_with_load}"
        )

    for a, kb, n in _crossovers(list(counts), series):
        report.notes.append(
            f"method crossover: {a} vs {kb} flips at {n} GPUs on "
            f"{node.interconnect.name}"
        )
    report.notes.append(
        f"{'all three methods' if len(strategies) > 1 else strategies[0]} "
        "run through the same MultiGridGroup scope; only the strategy "
        "(counting + release mechanism) differs"
    )
    return report
