"""Micro-benchmarks for implicit barriers (Sections IV and IX-B).

Two measurements, both host-clock based:

* **Kernel-fusion launch overhead** (Eq 6): compare launching ``i`` kernels
  of ``j`` sleep units against ``j`` kernels of ``i`` units — the work is
  identical, so the time difference divided by ``i - j`` is the overhead of
  one extra kernel boundary.  Valid only when the kernels are long enough
  to saturate the dispatch pipeline (~5 µs single-GPU, ~250 µs for 8-GPU
  multi-device launches); needs ``nanosleep``, hence V100-only.
* **Fig-3 null-kernel estimator**: ``((t3-t2) - (t2-t1)) / (5-1)`` around
  one launch+sync and five launches+sync — the steady-state *kernel total
  latency* including the dispatch pipeline a short kernel cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.cudasim.kernel import LaunchConfig, NullKernel, SleepKernel
from repro.cudasim.runtime import CudaRuntime
from repro.cudasim.timeline import HostTimeline, run_host_program
from repro.microbench.harness import Measurement, MeasurementConfig, collect
from repro.sim.arch import NodeSpec

__all__ = [
    "LaunchOverheadResult",
    "measure_launch_overhead",
    "measure_kernel_total_latency",
    "cpu_side_barrier_overhead",
]

_PROBE_CONFIG = LaunchConfig(grid_blocks=1, threads_per_block=32)

#: No harness warm-up: a discarded sample would be a whole simulation whose
#: state nothing reuses, since every sample warms up a fresh runtime itself.
_SAMPLES = MeasurementConfig(warmup=0, samples=5)


def _launch(rt: CudaRuntime, kernel, launch_type: str,
            devices: Optional[Sequence[int]]) -> Generator:
    """Dispatch through the launch function under test."""
    if launch_type == "traditional":
        yield from rt.launch(kernel, _PROBE_CONFIG)
    elif launch_type == "cooperative":
        yield from rt.launch_cooperative(kernel, _PROBE_CONFIG)
    elif launch_type == "multi_device":
        yield from rt.launch_cooperative_multi_device(
            kernel, _PROBE_CONFIG, devices=devices
        )
    else:
        raise ValueError(f"unknown launch type {launch_type!r}")


def _sync(rt: CudaRuntime, launch_type: str,
          devices: Optional[Sequence[int]]) -> Generator:
    if launch_type == "multi_device":
        yield from rt.synchronize_all()
    else:
        yield from rt.device_synchronize(launch_type=launch_type)


@dataclass(frozen=True)
class LaunchOverheadResult:
    """Fusion-method outcome (Eq 6)."""

    launch_type: str
    n_gpus: int
    overhead_ns: float
    overhead_std_ns: float
    i_launches: int
    j_launches: int


def _burst_latency(
    rt_factory,
    launch_type: str,
    n_launches: int,
    sleep_units: int,
    unit_ns: float,
    devices: Optional[Sequence[int]],
) -> float:
    """Host-clock latency of ``n_launches`` sleep kernels + one sync."""
    rt: CudaRuntime = rt_factory()
    kernel = SleepKernel(units=sleep_units, unit_ns=unit_ns, launch_type=launch_type)

    def host(h) -> Generator:
        # Warm-up launch, not timed (Section IX-B).
        yield from _launch(h, kernel, launch_type, devices)
        yield from _sync(h, launch_type, devices)
        t1 = h.host_clock.read()
        for _ in range(n_launches):
            yield from _launch(h, kernel, launch_type, devices)
        yield from _sync(h, launch_type, devices)
        return h.host_clock.read() - t1

    return run_host_program(rt, host)


def _check_single_device(launch_type: str, devices: Optional[Sequence[int]]) -> None:
    if devices is not None and launch_type in ("traditional", "cooperative"):
        raise ValueError(
            f"devices applies to multi_device launches only; a {launch_type} "
            "launch runs on device 0"
        )


def measure_launch_overhead(
    rt_factory,
    launch_type: str = "traditional",
    i_launches: int = 5,
    j_launches: int = 1,
    unit_ns: float = 1000.0,
    units_scale: int = 10,
    devices: Optional[Sequence[int]] = None,
    config: MeasurementConfig = _SAMPLES,
) -> LaunchOverheadResult:
    """Kernel-fusion launch overhead, Eq 6.

    ``rt_factory`` builds a fresh runtime per sample (cold stream, warm-up
    launch inside the sample, so the default ``config`` takes no harness
    warm-up sample).  ``units_scale`` sets the sleep length per "wait unit"
    (10 x 1 µs by default, as in Fig 3); for multi-device launches over many
    GPUs pass a larger scale so the kernels outlast the deeper dispatch
    pipeline — the paper's ~250 µs requirement on 8 GPUs.
    """
    for name, count in (("i_launches", i_launches), ("j_launches", j_launches)):
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    if i_launches == j_launches:
        raise ValueError("i and j must differ (Eq 6 divides by i - j)")
    _check_single_device(launch_type, devices)
    n_gpus = len(devices) if devices is not None else (
        rt_factory().gpu_count if launch_type == "multi_device" else 1
    )

    def sample_ij() -> float:
        return _burst_latency(
            rt_factory, launch_type, i_launches, j_launches * units_scale,
            unit_ns, devices,
        )

    def sample_ji() -> float:
        return _burst_latency(
            rt_factory, launch_type, j_launches, i_launches * units_scale,
            unit_ns, devices,
        )

    m_ij = collect(sample_ij, config)
    m_ji = collect(sample_ji, config)
    denom = i_launches - j_launches
    overhead = (m_ij.mean - m_ji.mean) / denom
    std = (m_ij.std**2 + m_ji.std**2) ** 0.5 / abs(denom)
    return LaunchOverheadResult(
        launch_type=launch_type,
        n_gpus=n_gpus,
        overhead_ns=overhead,
        overhead_std_ns=std,
        i_launches=i_launches,
        j_launches=j_launches,
    )


def measure_kernel_total_latency(
    rt_factory,
    launch_type: str = "traditional",
    devices: Optional[Sequence[int]] = None,
    config: MeasurementConfig = _SAMPLES,
) -> Measurement:
    """Fig-3 estimator: steady-state total latency of a *null* kernel.

    ``((t3 - t2) - (t2 - t1)) / (5 - 1)`` with one launch+sync between
    t1..t2 and five launches+sync between t2..t3.  Each sample runs its
    own warm-up launch on a fresh runtime, so the default ``config``
    takes no harness warm-up sample.
    """
    _check_single_device(launch_type, devices)

    def sample() -> float:
        rt: CudaRuntime = rt_factory()
        kernel = NullKernel(launch_type=launch_type)

        def host(h) -> Generator:
            yield from _launch(h, kernel, launch_type, devices)  # warm-up
            yield from _sync(h, launch_type, devices)
            t1 = h.host_clock.read()
            yield from _launch(h, kernel, launch_type, devices)
            yield from _sync(h, launch_type, devices)
            t2 = h.host_clock.read()
            for _ in range(5):
                yield from _launch(h, kernel, launch_type, devices)
            yield from _sync(h, launch_type, devices)
            t3 = h.host_clock.read()
            return ((t3 - t2) - (t2 - t1)) / (5 - 1)

        return run_host_program(rt, host)

    return collect(sample, config)


def cpu_side_barrier_overhead(
    node_spec: NodeSpec,
    n_gpus: int,
    config: MeasurementConfig = _SAMPLES,
) -> Measurement:
    """Per-iteration overhead of the Fig-6 CPU-side barrier pattern.

    One OpenMP thread per GPU launches a kernel, calls
    ``cudaDeviceSynchronize``, then meets at an OpenMP barrier.  Returns
    the steady-state overhead per iteration beyond kernel execution (the
    "Launch Overhead in CPU-side barriers" series of Fig 9).  Each sample
    runs its own warm-up iteration on a fresh runtime, so the default
    ``config`` takes no harness warm-up sample.
    """
    from repro.host.openmp import OmpTeam  # deferred: host depends on microbench-free core

    iters = 4
    sleep_units = 10

    def sample() -> float:
        rt = CudaRuntime.for_node(node_spec, gpu_count=n_gpus)
        team = OmpTeam(rt, n_threads=n_gpus)
        out: dict = {}

        def worker(h, barrier, tid: int) -> Generator:
            kernel = SleepKernel(units=sleep_units, unit_ns=1000.0)
            if not h.device(tid).spec.has_nanosleep:
                kernel = NullKernel()
            # warm-up iteration
            yield from h.launch(kernel, _PROBE_CONFIG, device=tid)
            yield from h.device_synchronize(device=tid)
            yield from barrier(tid)
            if tid == 0:
                out["t1"] = h.host_clock.read()
            for _ in range(iters):
                yield from h.launch(kernel, _PROBE_CONFIG, device=tid)
                yield from h.device_synchronize(device=tid)
                yield from barrier(tid)
            if tid == 0:
                out["t2"] = h.host_clock.read()

        timeline = HostTimeline.of(rt)
        if timeline is None:
            team.run(lambda tid: worker(rt, team.barrier, tid))
        else:
            # Every member makes the same calls on an identical device, so
            # all reach each barrier together: member 0's timeline is the
            # team's.
            barrier = timeline.team_barrier(team.barrier_cost_ns)
            timeline.run(worker(timeline, barrier, 0))
        per_iter = (out["t2"] - out["t1"]) / iters
        exec_ns = sleep_units * 1000.0 if node_spec.gpu.has_nanosleep else 0.0
        return per_iter - exec_ns

    return collect(sample, config)
