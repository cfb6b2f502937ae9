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
* ``"analytic"`` — run the closed forms when the workload is eligible
  (see :meth:`~repro.sim.backends.analytic.AnalyticBackend.ineligible_reason`);
  ineligible workloads fall back to the engine with a single warning
  per (scope type, reason).
* ``"auto"`` — analytic when eligible, engine otherwise, silently.  A
  scope with no backend set dispatches as ``"auto"``.

Unknown names raise, listing the valid set — the same loud-failure
contract as scenario overrides.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Set, Tuple

from repro.sim.backends.analytic import ANALYTIC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sync.scope import BarrierScope, ScopeRun

__all__ = [
    "BACKEND_CHOICES",
    "dispatch",
    "reset_fallback_warnings",
]

#: Names the ``backend`` knob accepts (``auto`` = analytic when eligible).
BACKEND_CHOICES: Tuple[str, ...] = ("engine", "analytic", "auto")


# One fallback warning per (scope type, reason) per process: a heat-map
# sweep that is ineligible for one structural reason should say so once,
# not once per cell.  Tests reset this via reset_fallback_warnings().
_FALLBACK_WARNED: Set[Tuple[str, str]] = set()


def reset_fallback_warnings() -> None:
    """Forget which fallback warnings were already emitted (test hook)."""
    _FALLBACK_WARNED.clear()


def dispatch(
    scope: "BarrierScope",
    n_syncs: int,
    members: Tuple[int, ...],
    choice: str,
    collect_trace: bool = True,
) -> "ScopeRun":
    """Resolve a backend name from :data:`BACKEND_CHOICES` for one run
    and execute it."""
    if choice == "engine":
        return scope._run_rounds_engine(n_syncs, members)
    if choice not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {choice!r}; available: "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    reason = ANALYTIC.ineligible_reason(scope, n_syncs, members)
    if reason is None:
        return ANALYTIC.run_rounds(scope, n_syncs, members, collect_trace)
    if choice == "analytic":
        key = (type(scope).__name__, reason)
        if key not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(key)
            warnings.warn(
                f"analytic backend cannot run {type(scope).__name__} "
                f"({reason}); falling back to the event-precise engine",
                RuntimeWarning,
                stacklevel=3,
            )
    return scope._run_rounds_engine(n_syncs, members)
