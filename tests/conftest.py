"""Shared fixtures: architecture specs and common tolerances."""

from __future__ import annotations

import pytest

from repro.experiments import faults
from repro.sim.arch import DGX1_V100, P100, P100_PCIE_NODE, V100


@pytest.fixture(params=["V100", "P100"], ids=["V100", "P100"])
def spec(request):
    """Parametrized GPU spec covering both studied architectures."""
    return V100 if request.param == "V100" else P100


@pytest.fixture
def v100():
    return V100


@pytest.fixture
def p100():
    return P100


@pytest.fixture
def dgx1():
    return DGX1_V100


@pytest.fixture
def p100_node():
    return P100_PCIE_NODE


@pytest.fixture
def inject_faults(monkeypatch):
    """Install a fault plan of the given rules through ``$REPRO_FAULT_PLAN``,
    the one channel plans arrive by."""

    def install(*rules):
        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan(rules).to_json())

    return install


def rel_err(measured: float, paper: float) -> float:
    """Relative error helper used throughout the suite."""
    return abs(measured - paper) / abs(paper)
