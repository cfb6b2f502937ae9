"""Simulation execution backends behind one dispatcher.

:func:`dispatch` turns a barrier scope and a round count into a
:class:`~repro.sync.scope.ScopeRun` on one of two paths:

* ``engine`` — the event-precise discrete-event engine (the oracle), and
* ``analytic`` — closed forms for uniform barrier ladders, in plain
  Python (chains folded with ``itertools.accumulate``, no numpy),
  bit-identical to the engine wherever it is eligible.

A scope with no backend set runs ``auto``: analytic where eligible,
engine otherwise.

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
