"""The per-ladder backend dispatcher.

A backend executes barrier rounds for a scope.  The contract mirrors
:meth:`repro.sync.scope.BarrierScope.run_rounds`: given a scope, a round
count and the member ids, produce the :class:`~repro.sync.scope.ScopeRun`
trace *and* leave the scope in the same observable state the engine
would (advanced clock, counter op counts, released rounds) — so code
downstream of a simulation cannot tell which backend produced it.

:func:`dispatch` runs the closed forms where
:func:`repro.sim.engine.shortcuts_allowed` lets a shortcut run and the
ladder is eligible (see
:meth:`~repro.sim.backends.analytic.AnalyticBackend.ineligible_reason`),
and the discrete-event engine
(:meth:`~repro.sync.scope.BarrierScope._run_rounds_engine`) otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.sim.backends.analytic import ANALYTIC
from repro.sim.engine import BACKEND_CHOICES, shortcuts_allowed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sync.scope import BarrierScope, ScopeRun

__all__ = [
    "BACKEND_CHOICES",
    "dispatch",
]


def dispatch(
    scope: "BarrierScope",
    n_syncs: int,
    members: Tuple[int, ...],
    choice: str,
    collect_trace: bool = True,
) -> "ScopeRun":
    """Execute one ladder of ``n_syncs`` rounds over ``members``.

    ``choice`` is the backend the ladder runs under
    (:data:`repro.sim.engine.BACKEND`, which ``run_rounds`` passes so a
    wrapper sees it); :func:`~repro.sim.engine.shortcuts_allowed` decides.
    """
    if shortcuts_allowed() and ANALYTIC.ineligible_reason(scope, n_syncs, members) is None:
        return ANALYTIC.run_rounds(scope, n_syncs, members, collect_trace)
    return scope._run_rounds_engine(n_syncs, members)
