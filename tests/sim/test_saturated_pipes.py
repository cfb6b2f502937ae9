"""The saturated-pipe folds of ``repro.sim.sm`` against the event engine.

``simulate_warp_sync_throughput`` and ``simulate_block_sync`` fold a
capacity-1 pipe that provably never idles instead of simulating it, but
only when they own their engine.  Passing an ``Engine`` keeps the event
path, so ``f(...) == f(..., engine=Engine())`` compares the fold with the
oracle bit for bit (the result dataclasses compare every float).
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import characterize
from repro.sim import sm
from repro.sim.arch import P100, V100
from repro.sim.engine import Engine
from repro.sim.occupancy import blocks_per_sm
from repro.sim.sm import (
    block_sync_latency_cycles,
    simulate_block_sync,
    simulate_warp_sync_throughput,
)

# Variants that reach cases no shipped GPU does.  A barrier unit slower per
# warp than the sync latency grows saturates even under a lone block; a tile
# sync whose latency fits in its initiation interval has no tail.
SLOW_UNIT_V100 = dataclasses.replace(
    V100,
    block_sync=dataclasses.replace(V100.block_sync, per_warp_service_cycles=8.0),
)
NO_TAIL_P100 = dataclasses.replace(
    P100, warp_sync=dataclasses.replace(P100.warp_sync, tile_throughput=0.5)
)


class _CountingEngine(Engine):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


def _calls(monkeypatch, driver, spec):
    """Every (function, arguments) ``driver(spec)`` passes to the SM sims."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("simulate_warp_sync_throughput", "simulate_block_sync"):
            fn = getattr(characterize, name)

            def record(*args, _fn=fn, **kwargs):
                bound = inspect.signature(_fn).bind(*args, **kwargs)
                bound.apply_defaults()
                calls.append((_fn, bound.arguments))
                return _fn(*args, **kwargs)

            m.setattr(characterize, name, record)
        driver(spec)
    return calls


def _engines_built(monkeypatch, fn, kwargs) -> int:
    _CountingEngine.built = 0
    with monkeypatch.context() as m:
        m.setattr(sm, "Engine", _CountingEngine)
        fn(**kwargs)
    return _CountingEngine.built


def _saturated(fn, a) -> bool:
    """The pipe-never-idles condition in exact arithmetic (docs/engine.md)."""
    spec = a["spec"]
    if fn is simulate_warp_sync_throughput:
        latency, ii = sm.warp_sync_params(spec, a["kind"], a["group_size"])
        return (a["n_warps"] - 1) * ii > latency - ii
    wpb, n_blocks = a["warps_per_block"], a["n_blocks"]
    r = min(n_blocks, blocks_per_sm(spec, wpb * spec.warp_size).blocks_per_sm)
    round_span = ((wpb - 1) * r + 1) * spec.block_sync.per_warp_service_cycles
    return n_blocks % r == 0 and round_span > block_sync_latency_cycles(spec, wpb)


@pytest.mark.parametrize(
    "driver, n_configs, n_folded",
    [
        # 5 warp-sync rows x 4 warp counts + the block row's 2 runs, per GPU
        (characterize.table2_rows, 44, 31),
        (characterize.block_sync_scan, 22, 10),
    ],
    ids=["table2", "fig4"],
)
def test_every_shipped_configuration_matches_the_engine(
    monkeypatch, driver, n_configs, n_folded
):
    calls = [c for spec in (V100, P100) for c in _calls(monkeypatch, driver, spec)]
    assert len(calls) == n_configs
    folded = 0
    for fn, kwargs in calls:
        assert fn(**kwargs) == fn(**dict(kwargs, engine=Engine()))
        built = _engines_built(monkeypatch, fn, kwargs)
        # The fold is taken exactly where the pipe saturates.
        assert built == (0 if _saturated(fn, kwargs) else 1)
        folded += built == 0
    # table2: 29 warp-sync configurations plus the saturated block row;
    # fig4: the oversubscribed 64-1024 warps/SM on both GPUs.
    assert folded == n_folded


_WARP_KINDS = st.one_of(
    st.sampled_from(
        [("tile", 32), ("shuffle_tile", 32), ("coalesced", 32), ("shuffle_coalesced", 32)]
    ),
    st.tuples(st.just("coalesced"), st.integers(1, 31)),  # partial coalesced
)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([V100, P100, NO_TAIL_P100]),
    kind=_WARP_KINDS,
    n_warps=st.integers(1, 128),
    repeats=st.integers(1, 64),
)
def test_warp_sync_fold_matches_engine(spec, kind, n_warps, repeats):
    args = (spec, *kind)
    assert simulate_warp_sync_throughput(
        *args, n_warps=n_warps, repeats=repeats
    ) == simulate_warp_sync_throughput(
        *args, n_warps=n_warps, repeats=repeats, engine=Engine()
    )


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([V100, P100, SLOW_UNIT_V100]),
    wpb=st.integers(1, 32),
    n_blocks=st.integers(1, 40),
    repeats=st.integers(1, 8),
)
def test_block_sync_fold_matches_engine(spec, wpb, n_blocks, repeats):
    assert simulate_block_sync(spec, wpb, n_blocks, repeats) == simulate_block_sync(
        spec, wpb, n_blocks, repeats, engine=Engine()
    )


def test_slow_unit_lone_block_folds(monkeypatch):
    # One resident block whose round outlasts the latency.
    kwargs = dict(spec=SLOW_UNIT_V100, warps_per_block=8, n_blocks=1, repeats=4)
    assert _engines_built(monkeypatch, simulate_block_sync, kwargs) == 0
    assert simulate_block_sync(**kwargs) == simulate_block_sync(**kwargs, engine=Engine())


def test_no_tail_pipe_folds(monkeypatch):
    kwargs = dict(spec=NO_TAIL_P100, kind="tile", group_size=32, n_warps=2, repeats=8)
    assert _engines_built(monkeypatch, simulate_warp_sync_throughput, kwargs) == 0
    assert simulate_warp_sync_throughput(**kwargs) == simulate_warp_sync_throughput(
        **kwargs, engine=Engine()
    )


def test_passed_engine_runs_the_events():
    eng = Engine()
    simulate_warp_sync_throughput(V100, "tile", 32, n_warps=64, repeats=64, engine=eng)
    assert eng.event_count > 64 * 64
