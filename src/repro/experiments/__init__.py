"""Experiment drivers, scenarios, registry and sweep service.

One driver per reproduced table/figure; :class:`Scenario` parameterizes
the machines each driver measures; the registry maps experiment ids to
:class:`ExperimentSpec` entries; the sweep service executes (experiment,
scenario) points — optionally in parallel — behind a content-addressed
result cache.
"""

from repro.experiments.base import ComparisonRow, ExperimentReport, merge_reports
from repro.experiments.faults import FaultPlan, FaultRule, TransientPointError
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, get_spec
from repro.experiments.scenario import PAPER_SCENARIO, Scenario
from repro.experiments.service import RetryPolicy, run_all, run_experiment

__all__ = [
    "ComparisonRow",
    "ExperimentReport",
    "ExperimentSpec",
    "EXPERIMENTS",
    "FaultPlan",
    "FaultRule",
    "PAPER_SCENARIO",
    "RetryPolicy",
    "Scenario",
    "TransientPointError",
    "get_spec",
    "merge_reports",
    "run_experiment",
    "run_all",
]
