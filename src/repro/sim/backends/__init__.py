"""Simulation execution backends behind one dispatcher.

:func:`dispatch` turns a barrier scope and a round count into a
:class:`~repro.sync.scope.ScopeRun` on one of two paths:

* ``engine`` — the event-precise discrete-event engine (the default;
  byte-identical to the pre-backend pipeline), and
* ``analytic`` — numpy-vectorized closed forms for uniform barrier
  ladders, bit-identical to the engine wherever it is eligible.

Dispatch rules, the eligibility matrix and the closed-form derivations
are documented in ``docs/backends.md``.
"""

from repro.sim.backends.analytic import ANALYTIC, AnalyticBackend
from repro.sim.backends.base import (
    BACKEND_CHOICES,
    dispatch,
    reset_fallback_warnings,
)

__all__ = [
    "ANALYTIC",
    "BACKEND_CHOICES",
    "AnalyticBackend",
    "dispatch",
    "reset_fallback_warnings",
]
