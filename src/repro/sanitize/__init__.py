"""``repro.sanitize`` — a compute-sanitizer-style sync checker.

Two layers, mirroring ``compute-sanitizer``'s tool split:

* **Dynamic** (:mod:`~repro.sanitize.events`, :mod:`~repro.sanitize.hb`,
  :mod:`~repro.sanitize.checker`): instrument the engine, barrier scopes
  and shared memory into a structured sync-event stream; run vector-clock
  happens-before analysis plus barrier-protocol checks over it.  Enabled
  per run via ``repro-experiments run --sanitize {off,synccheck,racecheck,
  full}`` (or a ``SanitizerSession`` directly); strictly zero-cost when
  off.
* **Static** (:mod:`~repro.sanitize.lint`, console script ``repro-lint``):
  an AST linter for sync-API misuse in drivers and simulator code, with a
  committed baseline so CI fails only on *new* violations.

Importing the package loads none of its submodules: the names below are
imported from their defining modules on first access
(:func:`repro.lazy_getattr`), and the mode names are defined here, so
the CLI and ``Scenario`` validate ``--sanitize`` without loading the
checker.  The instrumented modules (``repro.sim.engine`` among them)
import :mod:`~repro.sanitize.events`, which therefore stays stdlib-only:
importing anything from the simulator there would cycle.  The monitor
itself is not exported: read ``events.MONITOR`` or call
:func:`~repro.sanitize.events.current_monitor`, which see the session's
installation.  See ``docs/sanitize.md`` for the event schema and rule
catalog.
"""

from repro import lazy_getattr

#: Scenario/CLI-facing mode names.  ``off`` is the default everywhere and
#: normalizes to "no sanitizer" (scenarios drop it so content hashes and
#: cached artifacts stay byte-identical to the unsanitized pipeline).
CHECK_MODES = ("synccheck", "racecheck", "full")
SANITIZE_MODES = ("off",) + CHECK_MODES

# Public name -> the module it is imported from on first access.
_EXPORTS = {
    "Finding": "repro.sanitize.checker",
    "RULE_ANCHORS": "repro.sanitize.checker",
    "SanitizerSession": "repro.sanitize.checker",
    "session": "repro.sanitize.checker",
    "check_sync": "repro.sanitize.checker",
    "check_races": "repro.sanitize.checker",
    "check_deadlock": "repro.sanitize.checker",
    "run_checks": "repro.sanitize.checker",
    "render_findings": "repro.sanitize.checker",
    "EVENT_KINDS": "repro.sanitize.events",
    "SyncEvent": "repro.sanitize.events",
    "ScopeInfo": "repro.sanitize.events",
    "SyncMonitor": "repro.sanitize.events",
    "install": "repro.sanitize.events",
    "uninstall": "repro.sanitize.events",
    "current_monitor": "repro.sanitize.events",
    "Race": "repro.sanitize.hb",
    "VectorClock": "repro.sanitize.hb",
    "find_races": "repro.sanitize.hb",
}

__all__ = ["SANITIZE_MODES", "CHECK_MODES", *_EXPORTS]

__getattr__ = lazy_getattr(__name__, _EXPORTS)
