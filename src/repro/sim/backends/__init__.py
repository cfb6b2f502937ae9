"""Simulation execution backends behind one dispatcher.

:func:`dispatch` turns a barrier scope and a round count into a
:class:`~repro.sync.scope.ScopeRun` under one of two choices:

* ``engine`` — the event-precise discrete-event engine (the oracle), and
* ``auto`` — the analytic closed forms for uniform barrier ladders, in
  plain Python (chains folded with ``itertools.accumulate``, no numpy),
  bit-identical to the engine wherever they are eligible, and the engine
  everywhere else.

A scope with no backend set runs ``auto``.

Dispatch rules, the eligibility matrix and the closed-form derivations
are documented in ``docs/backends.md``.
"""

from repro.sim.backends.analytic import ANALYTIC, AnalyticBackend
from repro.sim.backends.base import BACKEND_CHOICES, DISPATCHED, dispatch

__all__ = [
    "ANALYTIC",
    "BACKEND_CHOICES",
    "DISPATCHED",
    "AnalyticBackend",
    "dispatch",
]
