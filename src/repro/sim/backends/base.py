"""The per-run backend dispatcher.

A backend executes barrier rounds for a scope.  The contract mirrors
:meth:`repro.sync.scope.BarrierScope.run_rounds`: given a scope, a round
count and the member ids, produce the :class:`~repro.sync.scope.ScopeRun`
trace *and* leave the scope in the same observable state the engine
would (advanced clock, counter op counts, released rounds) — so code
downstream of a simulation cannot tell which backend produced it.

Dispatch is by name:

* ``"engine"`` — always run the discrete-event engine
  (:meth:`~repro.sync.scope.BarrierScope._run_rounds_engine`).
* ``"auto"`` — run the closed forms when the workload is eligible
  (see :meth:`~repro.sim.backends.analytic.AnalyticBackend.ineligible_reason`),
  the engine otherwise.  A scope with no backend set dispatches as
  ``"auto"``.

Unknown names raise, listing the valid set — the same loud-failure
contract as scenario overrides.  :data:`DISPATCHED` counts the ladders
dispatched under each name; the sweep service reads it to record which
backend a point's ladders actually ran under.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.sim.backends.analytic import ANALYTIC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sync.scope import BarrierScope, ScopeRun

__all__ = [
    "BACKEND_CHOICES",
    "DISPATCHED",
    "dispatch",
]

#: Names the ``backend`` knob accepts (``auto`` = analytic when eligible).
BACKEND_CHOICES: Tuple[str, ...] = ("engine", "auto")

#: Barrier ladders dispatched so far in this process, per choice.
DISPATCHED: Dict[str, int] = dict.fromkeys(BACKEND_CHOICES, 0)


def dispatch(
    scope: "BarrierScope",
    n_syncs: int,
    members: Tuple[int, ...],
    choice: str,
    collect_trace: bool = True,
) -> "ScopeRun":
    """Resolve a backend name from :data:`BACKEND_CHOICES` for one run
    and execute it."""
    if choice not in DISPATCHED:
        raise ValueError(
            f"unknown backend {choice!r}; available: "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    DISPATCHED[choice] += 1
    if choice == "auto" and ANALYTIC.ineligible_reason(scope, n_syncs, members) is None:
        return ANALYTIC.run_rounds(scope, n_syncs, members, collect_trace)
    return scope._run_rounds_engine(n_syncs, members)
