"""Simulation execution backends behind one dispatcher.

:func:`dispatch` turns a barrier scope and a round count into a
:class:`~repro.sync.scope.ScopeRun` under one of two choices, read from
the process-wide switch (:func:`repro.sim.engine.use_backend`):

* ``engine`` — the event-precise discrete-event engine (the oracle), and
* ``auto`` — the analytic closed forms for uniform barrier ladders, in
  plain Python (chains folded with ``itertools.accumulate``, no numpy),
  bit-identical to the engine wherever they are eligible, and the engine
  everywhere else.  An installed sanitizer monitor turns them off.

Dispatch rules, the eligibility matrix and the closed-form derivations
are documented in ``docs/backends.md``.
"""

from repro.sim.backends.analytic import ANALYTIC, AnalyticBackend
from repro.sim.backends.base import BACKEND_CHOICES, dispatch

__all__ = [
    "ANALYTIC",
    "BACKEND_CHOICES",
    "AnalyticBackend",
    "dispatch",
]
