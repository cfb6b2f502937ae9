"""The capacity-1 pipes, resolved without the event loop, against the engine.

``simulate_warp_sync_throughput`` and ``simulate_block_sync`` of
``repro.sim.sm`` and ``measure_shared_bandwidth`` of
``repro.microbench.intra_sm`` fold a saturated pipe, replay the warp
pipe's FIFO recurrence, or replay a lone customer's arithmetic instead of
simulating it, but only where shortcuts are allowed (docs/engine.md,
"Pipes without the event loop").  The ``engine`` backend turns them off,
so ``f(...) == _on_engine(f, ...)`` compares the shortcut with the oracle
bit for bit (the result dataclasses compare every float).
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import characterize, perfmodel
from repro.microbench import intra_sm
from repro.microbench.intra_sm import measure_shared_bandwidth
from repro.sim import sm
from repro.sim.arch import P100, V100
from repro.sim.engine import Engine, use_backend
from repro.sim.sm import (
    block_sync_latency_cycles,
    simulate_block_sync,
    simulate_warp_sync_throughput,
)
from repro.sync.groups import WarpGroup

# Variants that reach cases no shipped GPU does.  A barrier unit slower per
# warp than the sync latency grows saturates even under a lone block; a tile
# sync whose latency fits in its initiation interval has no tail; a slow
# load/store port saturates the proxy with a few warps.
SLOW_UNIT_V100 = dataclasses.replace(
    V100,
    block_sync=dataclasses.replace(V100.block_sync, per_warp_service_cycles=8.0),
)
NO_TAIL_P100 = dataclasses.replace(
    P100, warp_sync=dataclasses.replace(P100.warp_sync, tile_throughput=0.5)
)
SLOW_PORT_P100 = dataclasses.replace(
    P100, shared_mem=dataclasses.replace(P100.shared_mem, sm_cap_bytes_per_cycle=20.0)
)


def _replace(spec, group, **fields):
    """``spec`` with ``fields`` of its calibration ``group`` replaced."""
    return dataclasses.replace(
        spec, **{group: dataclasses.replace(getattr(spec, group), **fields)}
    )


def _exact(spec, **warp_sync):
    """``spec`` on a 1 GHz clock, where a cycle is exactly 1.0 ns, so
    dyadic latencies and intervals tie exactly in the pipe."""
    return _replace(dataclasses.replace(spec, freq_mhz=1000.0), "warp_sync", **warp_sync)


def _on_engine(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under the ``engine`` backend: the event path."""
    with use_backend("engine"):
        return fn(*args, **kwargs)


class _RecordingEngine(Engine):
    built: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).built.append(self)


def _calls(monkeypatch, module, names, driver, spec):
    """Every (function, arguments) ``driver(spec)`` passes to ``module.names``."""
    calls = []
    with monkeypatch.context() as m:
        for name in names:
            fn = getattr(module, name)

            def record(*args, _fn=fn, **kwargs):
                bound = inspect.signature(_fn).bind(*args, **kwargs)
                bound.apply_defaults()
                calls.append((_fn, bound.arguments))
                return _fn(*args, **kwargs)

            m.setattr(module, name, record)
        driver(spec)
    return calls


def _engines_built(monkeypatch, fn, kwargs, backend="auto") -> list:
    """The engines ``fn(**kwargs)`` builds under ``backend``."""
    _RecordingEngine.built = []
    with monkeypatch.context() as m:
        m.setattr(sm, "Engine", _RecordingEngine)
        m.setattr(intra_sm, "Engine", _RecordingEngine)
        with use_backend(backend):
            fn(**kwargs)
    return _RecordingEngine.built


def _table3_and_table4(spec):
    return perfmodel.table3_rows(spec), perfmodel.table4_rows(spec)


@pytest.mark.parametrize(
    "module, names, driver, n_configs",
    [
        # 5 warp-sync rows x 4 warp counts + the block row's 2 runs, per GPU
        (
            characterize,
            ("simulate_warp_sync_throughput", "simulate_block_sync"),
            characterize.table2_rows,
            44,
        ),
        # 11 warp counts per GPU
        (characterize, ("simulate_block_sync",), characterize.block_sync_scan, 22),
        # 1, 32, 32 and 1,024 threads per table, per GPU
        (perfmodel, ("measure_shared_bandwidth",), _table3_and_table4, 16),
    ],
    ids=["table2", "fig4", "table3_table4"],
)
def test_every_shipped_configuration_matches_the_engine(
    monkeypatch, module, names, driver, n_configs
):
    calls = [
        c
        for spec in (V100, P100)
        for c in _calls(monkeypatch, module, names, driver, spec)
    ]
    assert len(calls) == n_configs
    for fn, kwargs in calls:
        assert fn(**kwargs) == _on_engine(fn, **kwargs)
        # Saturated, latency-bound or lone: none of them needs the events.
        assert _engines_built(monkeypatch, fn, kwargs) == []


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
    ) == _on_engine(simulate_warp_sync_throughput, *args, n_warps=n_warps, repeats=repeats)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([V100, P100]),
    ii=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    tail_intervals=st.integers(0, 96),
    n_warps=st.integers(1, 64),
    repeats=st.integers(1, 32),
)
def test_warp_pipe_with_tied_tails_matches_engine(
    spec, ii, tail_intervals, n_warps, repeats
):
    # A tail of k intervals brings a warp back exactly when another warp
    # releases the pipe: the recurrence's max() meets its tie.
    spec = _exact(spec, tile_throughput=1.0 / ii, tile_latency=ii * (tail_intervals + 1))
    kwargs = dict(spec=spec, kind="tile", group_size=32, n_warps=n_warps, repeats=repeats)
    assert simulate_warp_sync_throughput(**kwargs) == _on_engine(
        simulate_warp_sync_throughput, **kwargs
    )


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([V100, P100, SLOW_UNIT_V100]),
    wpb=st.integers(1, 32),
    n_blocks=st.integers(1, 40),
    repeats=st.integers(1, 8),
)
def test_block_sync_fold_matches_engine(spec, wpb, n_blocks, repeats):
    assert simulate_block_sync(spec, wpb, n_blocks, repeats) == _on_engine(
        simulate_block_sync, spec, wpb, n_blocks, repeats
    )


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([V100, P100]),
    service=st.floats(0.0, 20.0),
    base=st.floats(0.0, 400.0),
    wpb=st.integers(1, 32),
    repeats=st.integers(1, 16),
)
def test_lone_block_matches_engine(spec, service, base, wpb, repeats):
    spec = _replace(
        spec, "block_sync", per_warp_service_cycles=service, base_latency_cycles=base
    )
    assert simulate_block_sync(spec, wpb, 1, repeats) == _on_engine(
        simulate_block_sync, spec, wpb, 1, repeats
    )


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from([V100, P100, SLOW_PORT_P100]),
    n_threads=st.one_of(st.integers(1, 1024), st.integers(1, 32).map(lambda w: 32 * w)),
    iterations=st.integers(1, 64),
)
def test_shared_bandwidth_matches_engine(spec, n_threads, iterations):
    assert measure_shared_bandwidth(spec, n_threads, iterations) == _on_engine(
        measure_shared_bandwidth, spec, n_threads, iterations
    )


# -- knife edges, without hypothesis -------------------------------------------
#
# Each grid straddles the boundary between two of a function's paths: the
# saturation guard (exactly at the tie and a few ulps either side) and,
# for the warp pipe, tails that tie arrivals with releases exactly.


@pytest.mark.parametrize("n_warps", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("repeats", [1, 2, 9])
def test_warp_pipe_knife_edge(n_warps, repeats):
    ii = 0.5
    for tail_intervals in range(max(0, n_warps - 2), n_warps + 1):
        for tail in (
            ii * tail_intervals,
            math.nextafter(ii * tail_intervals, math.inf),
            math.nextafter(ii * tail_intervals, 0.0),
        ):
            spec = _exact(V100, tile_throughput=1.0 / ii, tile_latency=ii + tail)
            kwargs = dict(spec=spec, kind="tile", n_warps=n_warps, repeats=repeats)
            assert simulate_warp_sync_throughput(**kwargs) == (
                _on_engine(simulate_warp_sync_throughput, **kwargs)
            ), (tail_intervals, tail)


@pytest.mark.parametrize("spec", [V100, P100], ids=["V100", "P100"])
@pytest.mark.parametrize("n_warps", [2, 3, 8, 32])
@pytest.mark.parametrize("iterations", [2, 64])
def test_shared_bandwidth_knife_edge(spec, n_warps, iterations):
    # The proxy folds only while n_warps port times outlast the chain.
    port = spec.warp_size * spec.shared_mem.element_bytes / (
        spec.shared_mem.sm_cap_bytes_per_cycle
    )
    for rel in (-(2.0**-20), -(2.0**-40), -(2.0**-46), 0.0, 2.0**-46, 2.0**-20):
        edge = _replace(spec, "shared_mem", chain_latency_cycles=n_warps * port * (1 + rel))
        n_threads = n_warps * spec.warp_size
        assert measure_shared_bandwidth(edge, n_threads, iterations) == (
            _on_engine(measure_shared_bandwidth, edge, n_threads, iterations)
        ), rel


@pytest.mark.parametrize("spec", [V100, P100], ids=["V100", "P100"])
@pytest.mark.parametrize("wpb", [1, 2, 7, 32])
def test_lone_block_knife_edge(spec, wpb):
    # A lone block folds only while its wpb services outlast the sync latency.
    latency = block_sync_latency_cycles(spec, wpb)
    for rel in (-(2.0**-20), -(2.0**-46), 0.0, 2.0**-46, 2.0**-20):
        edge = _replace(spec, "block_sync", per_warp_service_cycles=latency / wpb * (1 + rel))
        assert simulate_block_sync(edge, wpb, 1, 5) == (
            _on_engine(simulate_block_sync, edge, wpb, 1, 5)
        ), rel


def test_slow_unit_lone_block_folds(monkeypatch):
    # One resident block whose round outlasts the latency.
    kwargs = dict(spec=SLOW_UNIT_V100, warps_per_block=8, n_blocks=1, repeats=4)
    assert _engines_built(monkeypatch, simulate_block_sync, kwargs) == []
    assert simulate_block_sync(**kwargs) == _on_engine(simulate_block_sync, **kwargs)


def test_no_tail_pipe_folds(monkeypatch):
    kwargs = dict(spec=NO_TAIL_P100, kind="tile", group_size=32, n_warps=2, repeats=8)
    assert _engines_built(monkeypatch, simulate_warp_sync_throughput, kwargs) == []
    assert simulate_warp_sync_throughput(**kwargs) == _on_engine(
        simulate_warp_sync_throughput, **kwargs
    )


def test_engine_backend_runs_the_events(monkeypatch):
    # Saturated, latency-bound and lone pipes of all three functions.
    for fn, kwargs, n_services in [
        (simulate_warp_sync_throughput, dict(spec=V100, kind="tile", n_warps=64), 64 * 64),
        (
            simulate_warp_sync_throughput,
            dict(spec=V100, kind="shuffle_coalesced", n_warps=8),
            8 * 64,
        ),
        (simulate_block_sync, dict(spec=V100, warps_per_block=16, n_blocks=4), 16 * 4 * 8),
        (simulate_block_sync, dict(spec=V100, warps_per_block=1, n_blocks=1), 8),
        (measure_shared_bandwidth, dict(spec=V100, n_threads=1024), 32 * 64),
        (measure_shared_bandwidth, dict(spec=V100, n_threads=1), 64),
    ]:
        [eng] = _engines_built(monkeypatch, fn, kwargs, backend="engine")
        assert eng.event_count > n_services, (fn.__name__, kwargs)


# -- calibration checks ----------------------------------------------------------
#
# Each pipe checks its service and latency once, before it picks a path, so
# the fold, the replays and the events reject the same inputs.  A NaN
# latency used to read as zero wherever a comparison absorbed it.

_BAD_CALIBRATION = [
    (
        simulate_warp_sync_throughput,
        dict(spec=_replace(V100, "warp_sync", shuffle_tile_latency=math.nan),
             kind="shuffle_tile", n_warps=8),
        "shuffle_tile_latency",
    ),
    (
        simulate_warp_sync_throughput,
        dict(spec=_replace(V100, "warp_sync", shuffle_tile_throughput=-0.5),
             kind="shuffle_tile", n_warps=8),
        "shuffle_tile_throughput",
    ),
    (
        simulate_block_sync,
        dict(spec=_replace(V100, "block_sync", base_latency_cycles=math.nan),
             warps_per_block=1, n_blocks=1),
        "base_latency_cycles",
    ),
    (
        simulate_block_sync,
        dict(spec=_replace(V100, "block_sync", per_warp_service_cycles=math.inf),
             warps_per_block=1, n_blocks=1),
        "per_warp_service_cycles",
    ),
    (
        measure_shared_bandwidth,
        dict(spec=_replace(V100, "shared_mem", chain_latency_cycles=math.nan), n_threads=32),
        "chain_latency_cycles",
    ),
    (
        measure_shared_bandwidth,
        dict(spec=_replace(V100, "shared_mem", sm_cap_bytes_per_cycle=-215.0), n_threads=1),
        "sm_cap_bytes_per_cycle",
    ),
]


@pytest.mark.parametrize("backend", ["auto", "engine"], ids=["own", "engine"])
@pytest.mark.parametrize(
    "fn, kwargs, field",
    _BAD_CALIBRATION,
    ids=[
        "warp_nan_latency", "warp_negative_throughput", "block_nan_latency",
        "block_infinite_service", "proxy_nan_chain", "proxy_negative_port",
    ],
)
def test_bad_calibration_is_rejected_on_every_path(fn, kwargs, field, backend):
    with use_backend(backend), pytest.raises(ValueError, match=field):
        fn(**kwargs)


# Each pipe checks its counts once at entry, before it picks a path: a float
# count used to run on one path and fail with a different TypeError on another.

_BAD_COUNTS = [
    (simulate_block_sync, dict(spec=V100, warps_per_block=2.5, n_blocks=1), "warps_per_block"),
    (simulate_block_sync, dict(spec=V100, warps_per_block=2, n_blocks=2.0), "n_blocks"),
    (simulate_block_sync, dict(spec=V100, warps_per_block=2, n_blocks=1, repeats=0),
     "repeats"),
    (
        simulate_warp_sync_throughput,
        dict(spec=V100, kind="coalesced", group_size=2.5, n_warps=64, repeats=8),
        "group_size",
    ),
    (simulate_warp_sync_throughput, dict(spec=V100, kind="tile", n_warps=2.5), "n_warps"),
    (simulate_warp_sync_throughput, dict(spec=V100, kind="tile", repeats=-1), "repeats"),
    (measure_shared_bandwidth, dict(spec=V100, n_threads=2.5), "n_threads"),
    (measure_shared_bandwidth, dict(spec=V100, n_threads=32, iterations=1.0), "iterations"),
]


@pytest.mark.parametrize("backend", ["auto", "engine"])
@pytest.mark.parametrize(
    "fn, kwargs, name",
    _BAD_COUNTS,
    ids=[
        "block_float_warps", "block_float_blocks", "block_zero_repeats",
        "warp_float_group", "warp_float_warps", "warp_negative_repeats",
        "proxy_float_threads", "proxy_float_iterations",
    ],
)
def test_count_must_be_an_integer_at_least_one(fn, kwargs, name, backend):
    with use_backend(backend), pytest.raises(
        ValueError, match=rf"^{name} must be an integer >= 1, got "
    ):
        fn(**kwargs)


# A throughput is divided into a service time, so it must be finite and
# positive where it is read; a zero used to escape as ZeroDivisionError.

_WARP_THROUGHPUTS = [
    ("tile", 32, "tile"),
    ("coalesced", 32, "coalesced_full"),
    ("coalesced", 16, "coalesced_partial"),
    ("shuffle_tile", 32, "shuffle_tile"),
    ("shuffle_coalesced", 32, "shuffle_coalesced"),
]


@pytest.mark.parametrize("value", [0.0, math.inf], ids=["zero", "infinite"])
@pytest.mark.parametrize(
    "kind, group_size, field", _WARP_THROUGHPUTS,
    ids=[field for _, _, field in _WARP_THROUGHPUTS],
)
def test_warp_sync_throughput_must_be_positive_and_finite(kind, group_size, field, value):
    spec = _replace(V100, "warp_sync", **{f"{field}_throughput": value})
    with pytest.raises(ValueError, match=rf"warp_sync\.{field}_throughput"):
        sm.warp_sync_params(spec, kind, group_size)
    with pytest.raises(ValueError, match=rf"warp_sync\.{field}_throughput"):
        simulate_warp_sync_throughput(spec, kind, group_size, n_warps=8)


def test_warp_group_rejects_zero_throughput_at_construction():
    spec = _replace(V100, "warp_sync", tile_throughput=0.0)
    with pytest.raises(ValueError, match=r"warp_sync\.tile_throughput"):
        WarpGroup(spec, 32, "tile")


@pytest.mark.parametrize("value", [0.0, math.inf], ids=["zero", "infinite"])
def test_shared_port_throughput_must_be_positive_and_finite(value):
    spec = _replace(V100, "shared_mem", sm_cap_bytes_per_cycle=value)
    with pytest.raises(ValueError, match=r"shared_mem\.sm_cap_bytes_per_cycle"):
        measure_shared_bandwidth(spec, 32)
