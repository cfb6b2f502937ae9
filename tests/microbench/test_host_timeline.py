"""The host-clock protocols, replayed without the event loop, against the engine.

``measure_launch_overhead``, ``measure_kernel_total_latency`` and
``cpu_side_barrier_overhead`` of ``repro.microbench.implicit`` and
``measure_kernel_total_latency_host`` of ``repro.microbench.inter_sm`` run
each sample's host program on a ``HostTimeline`` replay when the sample's
runtime is fresh and made its own engine, and shortcuts are allowed
(docs/engine.md, "Host timelines without the event loop").  The ``engine``
backend keeps the event path, so running a protocol under it compares the
replay with the oracle bit for bit (the result dataclasses compare every
float).
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cudasim.errors import CooperativeLaunchTooLarge, InvalidConfiguration, InvalidDevice
from repro.cudasim.kernel import Kernel, LaunchConfig, NullKernel, WorkKernel
from repro.cudasim.runtime import CudaRuntime
from repro.cudasim.timeline import HostTimeline, run_host_program
from repro.experiments import exp_launch, exp_model
from repro.experiments.registry import get_spec
from repro.experiments.scenario import apply_overrides
from repro.experiments.service.workers import execute_point
from repro.microbench import implicit, inter_sm
from repro.microbench.harness import MeasurementConfig
from repro.sanitize import SanitizerSession
from repro.sim.arch import DGX1_V100, P100, P100_PCIE_NODE, V100, LaunchCalib
from repro.sim.engine import Engine, SimulationError, Timeout, use_backend
from repro.sim.exec_thread import UnsupportedInstruction

ONE = MeasurementConfig(warmup=1, samples=2)
CFG = LaunchConfig(grid_blocks=1, threads_per_block=32)
LAUNCH_TYPES = ("traditional", "cooperative", "multi_device")


@contextlib.contextmanager
def _runtimes_built():
    """Every runtime constructed inside the block."""
    built = []
    init = CudaRuntime.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(CudaRuntime, "__init__", record)
        yield built


def _both_paths(call):
    """``call()``'s outcome on the replay and on the event path: its value,
    or its exception's type and message."""

    def outcome():
        try:
            return call()
        except Exception as exc:  # compared below, not swallowed
            return type(exc), str(exc)

    replayed = outcome()
    with use_backend("engine"):
        return replayed, outcome()


def _calls(monkeypatch, module, names, driver):
    """Every (function, arguments) ``driver()`` passes to ``module.names``."""
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
        driver()
    return calls


def _validation():
    for scenario in get_spec("validation").default_scenarios:
        exp_model.run_validation(scenario)


@pytest.mark.parametrize(
    "module, names, driver, n_configs",
    [
        # overhead and total latency of the three launch types
        (
            exp_launch,
            ("measure_launch_overhead", "measure_kernel_total_latency"),
            exp_launch.run_table1,
            6,
        ),
        # multi-device bursts and CPU-side teams on 1..8 GPUs
        (
            exp_launch,
            ("measure_launch_overhead", "cpu_side_barrier_overhead"),
            exp_launch.run_fig9,
            16,
        ),
        # the fadd cross-check on both GPUs (2 repeat counts each) and the
        # V100's grid-sync repeat invariance (2 pairs of 2)
        (inter_sm, ("measure_kernel_total_latency_host",), _validation, 8),
    ],
    ids=["table1", "fig9", "validation"],
)
def test_every_shipped_configuration_matches_the_engine(
    monkeypatch, module, names, driver, n_configs
):
    calls = _calls(monkeypatch, module, names, driver)
    assert len(calls) == n_configs
    for fn, kwargs in calls:
        with _runtimes_built() as replayed:
            replay = fn(**kwargs)
        with use_backend("engine"), _runtimes_built() as simulated:
            events = fn(**kwargs)
        assert replay == events
        assert replayed and all(rt.engine.event_count == 0 for rt in replayed)
        assert all(rt.engine.event_count > 0 for rt in simulated)


_FIELD = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 256.0, 1024.0, 8192.0]),
    st.floats(0.0, 20_000.0),
)
_CALIB = st.builds(
    LaunchCalib,
    api_ns=_FIELD,
    dispatch_ns=_FIELD,
    gap_ns=_FIELD,
    sync_return_ns=_FIELD,
    exec_null_ns=_FIELD,
    gap_quad_ns_per_gpu2=_FIELD,
    dispatch_ns_per_extra_gpu=_FIELD,
)


@settings(max_examples=40, deadline=None)
@given(
    calibs=st.tuples(_CALIB, _CALIB, _CALIB),
    base=st.sampled_from([DGX1_V100, P100_PCIE_NODE]),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
    omp_ns=_FIELD,
    seed=st.integers(0, 2**31),
    n_gpus=st.integers(1, 8),
    launch_type=st.sampled_from(LAUNCH_TYPES),
    launches=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    units_scale=st.sampled_from([0, 1, 10, 400]),
    unit_ns=st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
    work_ns=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    repeats=st.integers(0, 4),
)
def test_host_timeline_matches_engine(
    calibs, base, jitter, omp_ns, seed, n_gpus, launch_type, launches,
    units_scale, unit_ns, work_ns, repeats,
):
    assume(launches[0] != launches[1] and n_gpus <= base.gpu_count)
    gpu = dataclasses.replace(base.gpu, launch=dict(zip(LAUNCH_TYPES, calibs)))
    node = dataclasses.replace(
        base, gpu=gpu, host_clock_jitter_ns=jitter, omp_barrier_base_ns=omp_ns
    )
    if launch_type == "multi_device":
        devices = list(range(n_gpus))

        def factory():
            return CudaRuntime.for_node(node, gpu_count=n_gpus, seed=seed)
    else:
        devices = None

        def factory():
            return CudaRuntime.single_gpu(gpu, seed=seed, host_jitter_ns=jitter)

    def protocols():
        i, j = launches
        overhead = (
            implicit.measure_launch_overhead(
                factory, launch_type, i, j, unit_ns, units_scale, devices, ONE
            )
            if gpu.has_nanosleep
            else None
        )
        return (
            overhead,
            implicit.measure_kernel_total_latency(factory, launch_type, devices, ONE),
            implicit.cpu_side_barrier_overhead(node, n_gpus, ONE),
            inter_sm.measure_kernel_total_latency_host(
                gpu, lambda r: work_ns * r, repeats, ONE, seed
            ),
        )

    replay, events = _both_paths(protocols)
    assert replay == events


def test_a_shared_runtime_replays_its_first_sample_only():
    # The replay leaves the runtime where the event path would, so the
    # later samples continue on the engine from the same state.
    def shared():
        rt = CudaRuntime.for_node(DGX1_V100, gpu_count=3, seed=7)
        return lambda: rt

    for fn, kwargs in [
        (implicit.measure_kernel_total_latency, dict(launch_type="multi_device")),
        (implicit.measure_launch_overhead, dict(launch_type="multi_device")),
    ]:
        replay_factory, engine_factory = shared(), shared()
        replayed = fn(replay_factory, **kwargs)
        with use_backend("engine"):
            assert fn(engine_factory, **kwargs) == replayed
        assert replay_factory().engine.now == engine_factory().engine.now


# A stream whose earlier kernel completes one ulp after a later one that is
# due the instant it is enqueued: ``t + (end - t)`` rounds a tie up for the
# first (T is 1.5 ulp of E) and is exact for the second.  The sync waits
# for the stream's last pending kernel, not its latest completion.
_E = 1.5 * 2**20 + 2**-32
_T = 3 * 2**-33
_TIE_GPU = dataclasses.replace(
    V100,
    launch=dict(
        V100.launch,
        traditional=LaunchCalib(
            api_ns=_T, dispatch_ns=1 - _T, gap_ns=0.0, sync_return_ns=1 - _T,
            exec_null_ns=0.0,
        ),
        cooperative=LaunchCalib(
            api_ns=_E - 1.0, dispatch_ns=0.0, gap_ns=0.0, sync_return_ns=0.0,
            exec_null_ns=0.0,
        ),
    ),
)


def _tied_completions(h):
    yield from h.launch(WorkKernel(_E - 1.0), CFG)  # ends at E, completes at E + ulp
    yield from h.device_synchronize(device=1)  # idle stream: the host is at 1.0
    yield from h.launch_cooperative(NullKernel("cooperative"), CFG)  # due at E
    yield from h.device_synchronize(launch_type="cooperative")
    return h.host_clock.read()


def _two_streams(h):
    yield from h.launch(WorkKernel(50_000.0), CFG, device=0)
    yield from h.launch(WorkKernel(5.0), CFG, device=1)
    yield from h.synchronize_all()  # the longer kernel, on the first stream
    t = h.host_clock.read()
    yield from h.launch(WorkKernel(7.5), CFG, device=1)
    return t, h.host_clock.read()  # the last kernel still runs at the end


@pytest.mark.parametrize(
    "gpu, jitter, program",
    [(_TIE_GPU, 0.0, _tied_completions), (V100, 120.0, _two_streams)],
    ids=["tied_completions", "two_streams"],
)
def test_host_programs_match_engine(gpu, jitter, program):
    def run():
        node = dataclasses.replace(DGX1_V100, gpu=gpu, host_clock_jitter_ns=jitter)
        rt = CudaRuntime.for_node(node, gpu_count=2, seed=1)
        return run_host_program(rt, program), rt.engine.now, rt.engine.event_count

    value, now, events = run()
    with use_backend("engine"):
        assert (value, now) == run()[:2]
    assert events == 0


class TestEventPathConditions:
    @staticmethod
    def _fresh():
        return CudaRuntime.single_gpu(V100)

    def test_fresh_runtime_replays(self):
        assert HostTimeline.of(self._fresh()) is not None

    def test_passed_engine(self):
        assert HostTimeline.of(CudaRuntime.single_gpu(V100, engine=Engine())) is None

    @staticmethod
    def _wait():
        yield Timeout(5.0)

    def test_engine_has_run(self):
        rt = self._fresh()
        rt.run_host(self._wait())
        assert HostTimeline.of(rt) is None

    def test_engine_has_work_queued(self):
        rt = self._fresh()
        rt.spawn_host(self._wait())
        assert HostTimeline.of(rt) is None

    def test_stream_has_work(self):
        rt = self._fresh()
        rt.stream(0).commit(NullKernel(), CFG, V100.launch_calib("traditional"), 0.0)
        assert HostTimeline.of(rt) is None

    def test_spent_by_a_replay(self):
        rt = self._fresh()

        def program(h):
            yield from h.launch(NullKernel(), CFG)

        run_host_program(rt, program)
        assert rt.engine.event_count == 0
        assert HostTimeline.of(rt) is None

    def test_monitor_installed(self):
        rt = self._fresh()
        with SanitizerSession("full"):
            assert HostTimeline.of(rt) is None
        assert HostTimeline.of(rt) is not None

    def test_engine_backend(self):
        rt = self._fresh()
        with use_backend("engine"):
            assert HostTimeline.of(rt) is None
        assert HostTimeline.of(rt) is not None

    def test_program_that_waits_on_its_own_is_refused(self):
        def program(h):
            yield Timeout(1.0)

        with pytest.raises(SimulationError, match="timeline's calls"):
            run_host_program(self._fresh(), program)


@pytest.mark.parametrize(
    "measure",
    [
        lambda: implicit.measure_kernel_total_latency(
            lambda: CudaRuntime.single_gpu(V100, seed=3), "cooperative"
        ),
        lambda: implicit.cpu_side_barrier_overhead(DGX1_V100, 4),
        lambda: inter_sm.measure_kernel_total_latency_host(V100, lambda r: 4.0 * r, 64),
    ],
    ids=["fig3", "cpu_side", "inter_sm"],
)
def test_monitor_keeps_the_event_path(monkeypatch, measure):
    replays = []
    run = HostTimeline.run

    def spy(self, program):
        replays.append(self)
        return run(self, program)

    monkeypatch.setattr(HostTimeline, "run", spy)
    plain = measure()
    assert replays
    replays.clear()
    with SanitizerSession("full") as session:
        sanitized = measure()
    assert replays == []
    assert session.monitor.events
    assert sanitized == plain


@pytest.mark.parametrize(
    "exp_id, events", [("table1", 225), ("fig9", 6_100), ("validation", 192)]
)
def test_sanitized_event_counts(exp_id, events):
    recorded = sum(
        execute_point(
            exp_id, apply_overrides(scenario, ["sanitize=full"]), use_cache=False
        ).report.sanitizer["events"]
        for scenario in get_spec(exp_id).default_scenarios
    )
    assert recorded == events


def _dgx1():
    return CudaRuntime.for_node(DGX1_V100, gpu_count=2)


def _v100():
    return CudaRuntime.single_gpu(V100)


def _program(launch):
    """A fresh V100/DGX-1 runtime's host thread making one ``launch(h)``."""

    def run():
        def program(h):
            yield from launch(h)
            yield from h.synchronize_all()

        return run_host_program(_dgx1(), program)

    return run


def _bad_duration(value):
    return Kernel("bad", duration_fn=lambda device, config: value)


@pytest.mark.parametrize(
    "call, error",
    [
        (
            lambda: implicit.measure_kernel_total_latency(_v100, "graph"),
            ValueError,
        ),
        (
            lambda: implicit.measure_launch_overhead(_v100, "graph"),
            ValueError,
        ),
        (
            lambda: implicit.measure_launch_overhead(
                _dgx1, "multi_device", devices=[0, 2]
            ),
            InvalidDevice,
        ),
        (
            lambda: implicit.measure_kernel_total_latency(
                _dgx1, "multi_device", devices=[]
            ),
            InvalidDevice,
        ),
        (
            lambda: implicit.measure_kernel_total_latency(
                _dgx1, "multi_device", devices=[1, 1]
            ),
            InvalidDevice,
        ),
        (
            _program(lambda h: h.launch_cooperative(NullKernel(), LaunchConfig(10**5, 1024))),
            CooperativeLaunchTooLarge,
        ),
        (
            _program(
                lambda h: h.launch_cooperative_multi_device(
                    NullKernel("multi_device"), LaunchConfig(10**5, 1024)
                )
            ),
            CooperativeLaunchTooLarge,
        ),
        (
            lambda: implicit.measure_launch_overhead(
                lambda: CudaRuntime.single_gpu(P100), "traditional"
            ),
            UnsupportedInstruction,
        ),
        (_program(lambda h: h.launch(_bad_duration(-1.0), CFG)), InvalidConfiguration),
        (
            _program(lambda h: h.launch(_bad_duration(float("nan")), CFG, device=1)),
            InvalidConfiguration,
        ),
        (
            lambda: implicit.measure_launch_overhead(_v100, j_launches=0),
            ValueError,
        ),
        (
            lambda: implicit.measure_kernel_total_latency(_v100, devices=[0]),
            ValueError,
        ),
    ],
    ids=[
        "unknown_launch_type",
        "unknown_launch_type_fusion",
        "device_out_of_range",
        "empty_device_list",
        "repeated_device",
        "coresidency",
        "coresidency_multi_device",
        "sleep_on_p100",
        "negative_duration",
        "nan_duration",
        "launch_count_below_one",
        "devices_for_single_device_launch",
    ],
)
def test_bad_input_raises_alike_on_both_paths(call, error):
    replay, events = _both_paths(call)
    assert replay == events
    assert replay[0] is error
