"""The paper's inter-SM measurement method (Section IX-D).

Wong's method cannot time operations that span SMs (each SM clock is
local), so the paper times whole kernels from the **CPU clock** around
``cudaDeviceSynchronize`` and differences two repeat counts (Eq 7); the
launch/dispatch/sync terms cancel, and Eq 8 bounds the uncertainty.

Our host clock carries calibrated Gaussian jitter, so the statistics are
exercised for real: a single-kernel measurement is noisy, the differenced
estimate converges as ``sqrt(sigma1^2+sigma2^2)/(r1-r2)``.

The module also provides the paper's two validation protocols:

* the float-add cross-check (both methods must agree: 4 cy on V100,
  6 cy on P100, matching Jia et al.);
* the repeat-invariance check for sync instructions (block/grid sync
  latency must not depend on how many times the instruction repeats).
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.cudasim import instructions as ins
from repro.cudasim.kernel import LaunchConfig, WorkKernel
from repro.cudasim.runtime import CudaRuntime
from repro.cudasim.timeline import run_host_program
from repro.microbench.harness import Measurement, MeasurementConfig, collect
from repro.microbench.stats import DerivedLatency, derive_instruction_latency
from repro.sim.arch import GPUSpec
from repro.sim.exec_thread import ThreadCtx, WarpExecutor
from repro.sync import BlockGroup, GridGroup

__all__ = [
    "measure_kernel_total_latency_host",
    "measure_instruction_latency_inter_sm",
    "verify_sync_repeat_invariance",
]

_PROBE_CONFIG = LaunchConfig(grid_blocks=1, threads_per_block=32)


def _chain_duration_ns(spec: GPUSpec, instruction: str, repeats: int) -> float:
    """Execution time of a kernel chaining ``repeats`` instructions,
    obtained by actually running the chain on the thread executor."""
    op_map = {
        "fadd": ins.FAdd(count=repeats),
        "dadd": ins.DAdd(count=repeats),
        "chain": ins.ChainStep(count=repeats),
    }
    try:
        op = op_map[instruction]
    except KeyError:
        raise ValueError(f"unknown instruction {instruction!r}") from None

    def program(ctx: ThreadCtx) -> Generator:
        if ctx.tid == 0:
            yield op

    run = WarpExecutor(spec, nthreads=1).run(program)
    return run.duration_ns


def _sync_latency_ns(spec: GPUSpec, level: str) -> float:
    """Cost of one sync at ``level``, from the unified sync API's
    per-scope ``latency_model`` (the closed forms the cooperative-groups
    scopes expose).  Called once per measurement, not per sample — the
    scope construction is not free."""
    if level == "block":
        return BlockGroup(spec, warps_per_block=8).latency_model()
    if level == "grid":
        return GridGroup(spec, blocks_per_sm=1, threads_per_block=256).latency_model()
    raise ValueError(f"unknown sync level {level!r}")


def measure_kernel_total_latency_host(
    spec: GPUSpec,
    duration_fn: Callable[[int], float],
    repeats: int,
    config: MeasurementConfig = MeasurementConfig(warmup=1, samples=12),
    seed: int = 0,
) -> Measurement:
    """Host-clock total latency of one kernel repeating an op ``repeats``
    times (launch + execution + synchronize, with clock jitter)."""
    counter = [0]

    def sample() -> float:
        counter[0] += 1
        rt = CudaRuntime.single_gpu(spec, seed=seed + counter[0])
        kernel = WorkKernel(duration_fn(repeats), name=f"probe-r{repeats}")

        def host(h) -> Generator:
            yield from h.launch(kernel, _PROBE_CONFIG)  # warm-up
            yield from h.device_synchronize()
            t1 = h.host_clock.read()
            yield from h.launch(kernel, _PROBE_CONFIG)
            yield from h.device_synchronize()
            return h.host_clock.read() - t1

        return run_host_program(rt, host)

    return collect(sample, config)


def measure_instruction_latency_inter_sm(
    spec: GPUSpec,
    instruction: str = "fadd",
    r1: int = 2048,
    r2: int = 512,
    config: MeasurementConfig = MeasurementConfig(warmup=1, samples=12),
    seed: int = 0,
) -> DerivedLatency:
    """Eq 7/8: derive one instruction's latency from the CPU clock."""
    if r1 == r2:
        raise ValueError("repeat counts must differ")

    def duration(r: int) -> float:
        return _chain_duration_ns(spec, instruction, r)

    m1 = measure_kernel_total_latency_host(spec, duration, r1, config, seed)
    m2 = measure_kernel_total_latency_host(spec, duration, r2, config, seed + 10_000)
    return derive_instruction_latency(m1, r1, m2, r2)


def verify_sync_repeat_invariance(
    spec: GPUSpec,
    level: str = "grid",
    repeat_pairs: tuple = ((64, 16), (128, 32)),
    config: MeasurementConfig = MeasurementConfig(warmup=1, samples=10),
    seed: int = 0,
) -> dict:
    """Check that per-sync latency is independent of the repeat count.

    The paper verifies this for block and grid sync (Section IX-D); warp
    sync is excluded — on real hardware it destabilizes via instruction-
    cache overflow, so the paper only reports its fastest result.
    Returns ``{pair: derived_latency_ns}`` plus the spread.
    """
    per_sync_ns = _sync_latency_ns(spec, level)
    results = {}
    for i, (r1, r2) in enumerate(repeat_pairs):
        derived = derive_instruction_latency(
            measure_kernel_total_latency_host(
                spec, lambda r: per_sync_ns * r, r1, config,
                seed + i * 31,
            ),
            r1,
            measure_kernel_total_latency_host(
                spec, lambda r: per_sync_ns * r, r2, config,
                seed + i * 31 + 7,
            ),
            r2,
        )
        results[(r1, r2)] = derived.latency_ns
    values = list(results.values())
    spread = (max(values) - min(values)) / max(values) if max(values) else 0.0
    return {"per_pair_ns": results, "relative_spread": spread}
