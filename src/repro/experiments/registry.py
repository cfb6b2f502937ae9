"""Registry of every reproduced table and figure — experiments as *data*.

Each entry is an :class:`ExperimentSpec`: a driver plus the default
scenarios it runs against, a title, tags, and the reproduction tolerance
the CLI enforces.  Default scenarios are split per architecture wherever
the driver's work factors cleanly (one point per GPU), so the sweep
service can execute and cache the points independently; ``run_all
--jobs N`` gets its parallelism from exactly this split.

Drivers are named by module and function (:class:`LazyDriver`) and
imported on their first call, so building the registry — and with it
listing experiments or serving a sweep from the result cache — imports
no driver, no simulator and no numpy.

Experiments run through :mod:`repro.experiments.service` (``run_all``,
``run_experiment``, ``SweepService``) — the **single entry path** that
owns per-point error handling and the content-addressed result cache.
Nothing calls a driver directly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentReport
from repro.experiments.scenario import (
    FIG7_SCENARIO,
    PAPER_SCENARIO,
    SYNC_METHODS_SCENARIOS,
    TABLE1_SCENARIO,
    Scenario,
)

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "LazyDriver",
    "get_spec",
    "load_drivers",
    "known_tags",
    "filter_by_tags",
]

# One scenario per paper GPU: the work of a dual-architecture driver factors
# into independent, individually-cacheable points.
_PER_GPU = (Scenario(gpus=("V100",)), Scenario(gpus=("P100",)))


@dataclass(frozen=True)
class LazyDriver:
    """A driver named by module and function, imported on its first call."""

    module: str
    name: str

    def load(self) -> Callable[..., ExperimentReport]:
        return getattr(import_module(self.module), self.name)

    def __call__(self, *args: Any, **kwargs: Any) -> ExperimentReport:
        return self.load()(*args, **kwargs)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproduced table/figure."""

    id: str
    title: str
    driver: Callable[..., ExperimentReport]
    default_scenarios: Tuple[Scenario, ...] = (PAPER_SCENARIO,)
    tags: Tuple[str, ...] = ()
    # Max acceptable mean |relative error| vs the paper; the CLI exits
    # nonzero when a report exceeds it.  ``None`` disables the gate.
    tolerance: Optional[float] = 0.10


_SPECS: List[ExperimentSpec] = [
    ExperimentSpec(
        "table1", "Launch overhead / null-kernel latency (V100)",
        LazyDriver("repro.experiments.exp_launch", "run_table1"),
        default_scenarios=(TABLE1_SCENARIO,),
        tags=("launch", "single-gpu", "smoke"),
    ),
    ExperimentSpec(
        "table2", "Warp-level synchronization (V100 + P100)",
        LazyDriver("repro.experiments.exp_sync", "run_table2"),
        default_scenarios=_PER_GPU, tags=("warp", "sync", "single-gpu"),
        tolerance=0.05,
    ),
    ExperimentSpec(
        "fig4", "Block synchronization scaling",
        LazyDriver("repro.experiments.exp_sync", "run_fig4"),
        default_scenarios=_PER_GPU, tags=("block", "sync", "single-gpu"),
        tolerance=0.05,
    ),
    ExperimentSpec(
        "fig5", "Grid synchronization heat-maps",
        LazyDriver("repro.experiments.exp_sync", "run_fig5"),
        default_scenarios=_PER_GPU, tags=("grid", "sync", "heatmap"),
    ),
    ExperimentSpec(
        "fig7", "Multi-grid synchronization (P100 x PCIe)",
        LazyDriver("repro.experiments.exp_sync", "run_fig7"),
        default_scenarios=(FIG7_SCENARIO,),
        tags=("multigrid", "sync", "multi-gpu", "pcie"),
    ),
    ExperimentSpec(
        "fig8", "Multi-grid synchronization (V100 DGX-1)",
        LazyDriver("repro.experiments.exp_sync", "run_fig8"),
        default_scenarios=(Scenario(gpus=("V100",)),),
        tags=("multigrid", "sync", "multi-gpu", "nvlink", "smoke"),
    ),
    ExperimentSpec(
        "fig9", "Implicit vs CPU-side vs multi-grid barriers across DGX-1",
        LazyDriver("repro.experiments.exp_launch", "run_fig9"),
        default_scenarios=(Scenario(gpus=("V100",)),),
        tags=("launch", "multigrid", "multi-gpu"),
    ),
    ExperimentSpec(
        "sync_methods",
        "Multi-device synchronization methods: strategy sweep",
        LazyDriver("repro.experiments.exp_sync", "run_sync_methods"),
        default_scenarios=SYNC_METHODS_SCENARIOS,
        tags=("sync", "multigrid", "multi-gpu", "strategy", "smoke"),
    ),
    ExperimentSpec(
        "table3", "Projected concurrency (Little's law)",
        LazyDriver("repro.experiments.exp_model", "run_table3"),
        default_scenarios=_PER_GPU, tags=("model", "single-gpu"),
        tolerance=0.03,
    ),
    ExperimentSpec(
        "table4", "Predicted worker switching points",
        LazyDriver("repro.experiments.exp_model", "run_table4"),
        default_scenarios=_PER_GPU, tags=("model", "single-gpu", "smoke"),
    ),
    ExperimentSpec(
        "table5", "Latency to sum 32 doubles per warp method",
        LazyDriver("repro.experiments.exp_reduction", "run_table5"),
        default_scenarios=_PER_GPU, tags=("reduction", "warp", "smoke"),
    ),
    ExperimentSpec(
        "fig15", "Single-GPU reduction latency vs size",
        LazyDriver("repro.experiments.exp_reduction", "run_fig15"),
        default_scenarios=_PER_GPU, tags=("reduction", "single-gpu"),
    ),
    ExperimentSpec(
        "table6", "Reduction bandwidth (GB/s)",
        LazyDriver("repro.experiments.exp_reduction", "run_table6"),
        default_scenarios=_PER_GPU, tags=("reduction", "single-gpu"),
        tolerance=0.03,
    ),
    ExperimentSpec(
        "fig16", "Multi-GPU reduction throughput (DGX-1)",
        LazyDriver("repro.experiments.exp_reduction", "run_fig16"),
        default_scenarios=(Scenario(gpus=("V100",)),),
        tags=("reduction", "multi-gpu"),
    ),
    ExperimentSpec(
        "fig18", "Warp-barrier blocking behaviour",
        LazyDriver("repro.experiments.exp_pitfalls", "run_fig18"),
        default_scenarios=_PER_GPU, tags=("pitfall", "warp"),
    ),
    ExperimentSpec(
        "divergence", "Divergence-heavy barrier-delimited phases",
        LazyDriver("repro.experiments.exp_divergence", "run_divergence"),
        default_scenarios=_PER_GPU, tags=("warp", "divergence", "smoke"),
        # No published anchor: the rows are booleans auditing the SIMT
        # fast path's re-convergence plus unanchored phase costs.
        tolerance=None,
    ),
    ExperimentSpec(
        "deadlock", "Partial-group synchronization outcomes",
        LazyDriver("repro.experiments.exp_pitfalls", "run_deadlock"),
        default_scenarios=_PER_GPU, tags=("pitfall", "deadlock", "smoke"),
    ),
    ExperimentSpec(
        "pitfalls_sanitized",
        "Sync pitfalls diagnosed by repro.sanitize",
        LazyDriver("repro.experiments.exp_sanitize", "run_pitfalls_sanitized"),
        default_scenarios=_PER_GPU,
        tags=("pitfall", "sanitizer", "smoke"),
        # Boolean did-the-checker-fire rows; no published numeric anchor.
        tolerance=None,
    ),
    ExperimentSpec(
        "validation", "Measurement-method cross-validation (Section IX-D)",
        LazyDriver("repro.experiments.exp_model", "run_validation"),
        default_scenarios=_PER_GPU, tags=("methodology", "smoke"),
    ),
    ExperimentSpec(
        "table8", "Summary of observations (Table VIII)",
        LazyDriver("repro.experiments.summary", "run_summary"),
        default_scenarios=(PAPER_SCENARIO,), tags=("summary",),
    ),
]

# Paper order, id -> spec.
EXPERIMENTS: Dict[str, ExperimentSpec] = {spec.id: spec for spec in _SPECS}


def get_spec(exp_id: str) -> ExperimentSpec:
    """Look up an experiment spec by id."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def load_drivers(exp_ids: Iterable[str]) -> None:
    """Import the driver modules of ``exp_ids`` now instead of on first call.

    The pool path calls this before it forks, so every worker inherits
    the modules (and numpy) instead of importing them once per worker.
    Wrapped drivers (``functools.wraps``) are unwrapped first; drivers
    swapped for plain callables have nothing to import.
    """
    for exp_id in dict.fromkeys(exp_ids):
        driver = inspect.unwrap(get_spec(exp_id).driver)
        if isinstance(driver, LazyDriver):
            driver.load()


def known_tags() -> Tuple[str, ...]:
    """Every tag used by at least one experiment, sorted."""
    return tuple(sorted({t for spec in EXPERIMENTS.values() for t in spec.tags}))


def filter_by_tags(ids: Sequence[str], tags: Sequence[str]) -> List[str]:
    """Restrict experiment ids to those carrying at least one of ``tags``.

    Unknown tags raise, listing the known ones — a typo in a CI job
    should fail the job, not silently select nothing.
    """
    known = known_tags()
    unknown = [t for t in tags if t not in known]
    if unknown:
        raise ValueError(
            f"unknown tag(s) {', '.join(sorted(unknown))}; "
            f"known tags: {', '.join(known)}"
        )
    wanted = set(tags)
    return [i for i in ids if wanted & set(EXPERIMENTS[i].tags)]

