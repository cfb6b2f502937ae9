"""Sanitizer contracts on the grid barrier.

1. **Zero cost when disabled.**  With no monitor installed the hooks are
   one module-attribute load + ``is None`` test per call site, and the
   default GridGroup takes the analytic closed forms: no member process,
   no engine event.

2. **Observational purity when enabled.**  Monitoring must not change
   what the simulation computes: the monitored run falls back to the
   engine and dispatches the same events to the same clock as an
   unmonitored engine run, and lands on the same total as the default
   analytic one.  The sanitizer is a tracer, never an actor.
"""

from __future__ import annotations

from repro.sanitize import SanitizerSession
from repro.sanitize import events as ev
from repro.sim.arch import V100
from repro.sim.engine import DeadlockError
from repro.sync import GridGroup
from repro.sync.scope import BarrierScope

_N_SYNCS = 4


def _grid_sync(n_syncs: int = _N_SYNCS, backend=None):
    group = GridGroup(V100, blocks_per_sm=2, threads_per_block=256, backend=backend)
    result = group.simulate(n_syncs=n_syncs)
    return result, group.engine.event_count


def test_bench_sanitize_off_overhead(monkeypatch):
    """No monitor is installed by default, and the disabled hooks leave
    the default grid barrier on the analytic closed forms: the
    hook-bearing ``BarrierScope._member_proc`` is never entered and the
    engine fires no event."""
    assert ev.MONITOR is None, "a sanitizer monitor leaked into the session"
    member_proc = BarrierScope._member_proc
    calls = []

    def counting(self, *args):
        calls.append(args[0])
        return member_proc(self, *args)

    monkeypatch.setattr(BarrierScope, "_member_proc", counting)
    result, events = _grid_sync()
    assert result.total_ns > 0
    assert calls == []
    assert events == 0


def test_bench_sanitize_full_observational_purity():
    """A full-mode session must not perturb the simulated clock: the
    monitored run equals an unmonitored engine run in time and events,
    and the default (analytic) run in time; the stream actually recorded
    the barrier protocol."""
    baseline, baseline_events = _grid_sync(backend="engine")
    default, default_events = _grid_sync()
    with SanitizerSession("full") as session:
        result, events = _grid_sync()
    assert ev.MONITOR is None  # session unwound
    assert result.total_ns == baseline.total_ns == default.total_ns
    assert result.total_blocks == baseline.total_blocks
    assert events == baseline_events
    assert default_events == 0
    arrivals = session.monitor.events_of("arrive")
    assert len(arrivals) == baseline.total_blocks * _N_SYNCS
    assert session.findings() == []


def test_bench_sanitize_partial_diagnosis():
    """The partial-participation pitfall is diagnosed, not hung on:
    the deadlock comes with divergence and blame findings."""
    with SanitizerSession("synccheck") as session:
        group = GridGroup(V100, 1, 64, sm_count=4)
        try:
            group.simulate(participating_blocks=2)
        except DeadlockError:
            pass
    rules = {f.rule for f in session.findings()}
    assert "SYNC-DIVERGENCE" in rules and "DEADLOCK-BLAME" in rules
