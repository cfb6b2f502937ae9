"""Single-GPU device-wide reductions (Section VII-D, Figs 13-15, Table VI).

Two first-party implementations:

* **implicit** (Fig 14): ``Kernel1`` grid-strides the input into per-block
  partials, the stream's implicit barrier orders it before ``Kernel2``,
  which block-reduces the partials.  Two traditional launches.
* **grid sync** (Fig 13): one *persistent* cooperative kernel — the same
  summing phase, then ``grid.sync()``, then block 0 reduces the partials.
  One cooperative launch, no second kernel.

plus the two published baselines in :mod:`repro.reduction.baselines`
(CUB ``DeviceReduce`` and the CUDA-SDK sample), all measured with the same
host-clock protocol so Fig 15 and Table VI come from one code path.

Functional results are real numpy sums when given an ndarray, and the
closed-form sum of a :class:`VirtualData` descriptor otherwise.  The
modeled time reads only the input's byte count (``HBMCalib``), never its
values, so :func:`make_input` materializes only Fig 15's first size: each
sweep still runs every method's functional path on one real array, and a
larger real array would change no reported number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Union

import numpy as np

from repro.cudasim.kernel import LaunchConfig, NullKernel, WorkKernel
from repro.cudasim.runtime import CudaRuntime
from repro.reduction.block import block_reduce_cycles
from repro.sim.arch import GPUSpec
from repro.sim.device import grid_sync_latency_ns
from repro.sim.occupancy import blocks_per_sm as occ_blocks_per_sm
from repro.util.units import GB, MB

__all__ = [
    "VirtualData",
    "make_input",
    "ReductionResult",
    "reduce_implicit",
    "reduce_grid_sync",
    "latency_vs_size",
    "bandwidth_table",
    "REDUCTION_METHODS",
]

# Fig 15's first size (0.1 MB).  Past it inputs are virtual: the timing
# reads only the byte count, so a real array would cost memory and time
# for an unchanged result.
MATERIALIZE_LIMIT_BYTES = MB // 10


@dataclass(frozen=True)
class VirtualData:
    """A reduction input described by size and analytically-known sum.

    The generator pattern is ``values[i] = (i % 97) * 0.25`` so any chunk
    can be materialized for spot checks.
    """

    n_elements: int
    dtype: str = "float64"

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("VirtualData needs at least one element")

    @property
    def nbytes(self) -> int:
        return self.n_elements * np.dtype(self.dtype).itemsize

    @property
    def expected_sum(self) -> float:
        """Closed form of sum((i % 97) * 0.25 for i in range(n))."""
        full, rem = divmod(self.n_elements, 97)
        s_full = full * (96 * 97 // 2)
        s_rem = rem * (rem - 1) // 2
        return 0.25 * (s_full + s_rem)

    def chunk(self, start: int, count: int) -> np.ndarray:
        idx = np.arange(start, min(start + count, self.n_elements))
        return (idx % 97) * 0.25


InputData = Union[np.ndarray, VirtualData]


def make_input(size_bytes: int, seed: int = 0) -> InputData:
    """Build a reduction input of ``size_bytes`` (float64 elements).

    Up to ``MATERIALIZE_LIMIT_BYTES`` the input is a real uniform draw from
    ``seed``; past it, a :class:`VirtualData` with the same byte count and
    so the same modeled time.  Sizes of 1-7 B round up to one element.
    Raises ``ValueError`` when ``size_bytes`` is below 1.
    """
    if size_bytes < 1:
        raise ValueError(f"size_bytes must be >= 1, got {size_bytes}")
    n = max(1, size_bytes // 8)
    if size_bytes <= MATERIALIZE_LIMIT_BYTES:
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, size=n)
    return VirtualData(n_elements=n)


def _expected_sum(data: InputData) -> float:
    if isinstance(data, VirtualData):
        return data.expected_sum
    return float(np.asarray(data, dtype=np.float64).sum())


def _nbytes(data: InputData) -> int:
    if isinstance(data, VirtualData):
        return data.nbytes
    return int(np.asarray(data).nbytes)


def _partials(data: InputData, n_blocks: int) -> np.ndarray:
    """Per-block partial sums (the functional effect of Kernel1)."""
    if isinstance(data, VirtualData):
        # Analytic total split into one representative partial per block.
        total = data.expected_sum
        out = np.zeros(n_blocks)
        out[0] = total
        return out
    arr = np.asarray(data, dtype=np.float64)
    if len(arr) == 0:
        return np.zeros(n_blocks)
    return np.array([chunk.sum() for chunk in np.array_split(arr, n_blocks)])


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of one measured device-wide reduction."""

    method: str
    size_bytes: int
    value: float
    expected: float
    total_ns: float

    @property
    def correct(self) -> bool:
        return bool(np.isclose(self.value, self.expected, rtol=1e-9))

    @property
    def latency_us(self) -> float:
        return self.total_ns / 1e3

    @property
    def bandwidth_gbps(self) -> float:
        """Sustained bandwidth (decimal GB/s, as Table VI reports)."""
        return self.size_bytes / self.total_ns if self.total_ns > 0 else 0.0


def _tail_ns(spec: GPUSpec, n_partials: int) -> float:
    """Final block-reduction of the per-block partials."""
    cost = block_reduce_cycles(spec, max(n_partials, 1), threads=1024)
    return spec.cycles_to_ns(cost.total_cycles)


def _measure(rt: CudaRuntime, host_builder) -> float:
    out: dict = {}

    def host() -> Generator:
        # Warm-up kernel, untimed (Section IX-B protocol).
        yield from rt.launch(NullKernel(), LaunchConfig(1, 32))
        yield from rt.device_synchronize()
        t1 = rt.host_clock.read()
        yield from host_builder()
        t2 = rt.host_clock.read()
        out["v"] = t2 - t1

    rt.run_host(host())
    return out["v"]


def reduce_implicit(
    spec: GPUSpec,
    data: InputData,
    threads_per_block: int = 256,
    blocks_per_sm: int = 2,
    seed: int = 0,
    bw_method: str = "implicit",
    extra_setup_ns: float = 0.0,
    method_name: str = "implicit",
) -> ReductionResult:
    """Two-kernel reduction ordered by the stream's implicit barrier.

    ``bw_method``/``extra_setup_ns`` let the baselines reuse this exact
    pipeline with their own bandwidth efficiency and setup cost.
    """
    rt = CudaRuntime.single_gpu(spec, seed=seed)
    dev = rt.device(0)
    nbytes = _nbytes(data)
    n_blocks = blocks_per_sm * spec.sm_count
    expected = _expected_sum(data)
    state: dict = {}

    def k1_body(device, config):
        state["partials"] = _partials(data, n_blocks)

    def k2_body(device, config):
        state["value"] = float(state["partials"].sum())

    eps = spec.launch_calib("traditional").exec_null_ns
    k1 = WorkKernel(
        eps + extra_setup_ns + dev.hbm.transfer_ns(nbytes, bw_method),
        name=f"{method_name}-sum",
        body=k1_body,
    )
    k2 = WorkKernel(
        eps + _tail_ns(spec, n_blocks), name=f"{method_name}-final", body=k2_body
    )
    cfg1 = LaunchConfig(n_blocks, threads_per_block)
    cfg2 = LaunchConfig(1, 1024)

    def host() -> Generator:
        yield from rt.launch(k1, cfg1)
        yield from rt.launch(k2, cfg2)
        yield from rt.device_synchronize()

    total = _measure(rt, lambda: host())
    return ReductionResult(
        method=method_name,
        size_bytes=nbytes,
        value=state["value"],
        expected=expected,
        total_ns=total,
    )


def reduce_grid_sync(
    spec: GPUSpec,
    data: InputData,
    threads_per_block: int = 512,
    blocks_per_sm: int = 2,
    seed: int = 0,
) -> ReductionResult:
    """Persistent-kernel reduction with one explicit ``grid.sync()``."""
    occ = occ_blocks_per_sm(spec, threads_per_block)
    if blocks_per_sm > occ.blocks_per_sm:
        raise ValueError(
            f"grid-sync reduction config {blocks_per_sm}x{threads_per_block} "
            f"is not co-resident on {spec.name}"
        )
    rt = CudaRuntime.single_gpu(spec, seed=seed)
    dev = rt.device(0)
    nbytes = _nbytes(data)
    n_blocks = blocks_per_sm * spec.sm_count
    expected = _expected_sum(data)
    state: dict = {}

    def body(device, config):
        partials = _partials(data, n_blocks)
        state["value"] = float(partials.sum())

    eps = spec.launch_calib("cooperative").exec_null_ns
    duration = (
        eps
        + dev.hbm.transfer_ns(nbytes, "grid")
        + grid_sync_latency_ns(spec, blocks_per_sm, threads_per_block)
        + _tail_ns(spec, n_blocks)
    )
    kernel = WorkKernel(duration, name="grid-sync-reduce", body=body)
    cfg = LaunchConfig(n_blocks, threads_per_block)

    def host() -> Generator:
        yield from rt.launch_cooperative(kernel, cfg)
        yield from rt.device_synchronize(launch_type="cooperative")

    total = _measure(rt, lambda: host())
    return ReductionResult(
        method="grid",
        size_bytes=nbytes,
        value=state["value"],
        expected=expected,
        total_ns=total,
    )


def _dispatch(spec: GPUSpec, method: str, data: InputData, seed: int) -> ReductionResult:
    from repro.reduction.baselines import reduce_cub, reduce_cuda_sample

    if method == "implicit":
        return reduce_implicit(spec, data, seed=seed)
    if method == "grid":
        return reduce_grid_sync(spec, data, seed=seed)
    if method == "cub":
        return reduce_cub(spec, data, seed=seed)
    if method == "cuda_sample":
        return reduce_cuda_sample(spec, data, seed=seed)
    raise ValueError(f"unknown reduction method {method!r}")


REDUCTION_METHODS = ("implicit", "grid", "cub", "cuda_sample")

# Fig 15's x-axis: 0.1 MB .. 10 GB (V100) / 1 GB (P100).
FIG15_SIZES_V100 = tuple(
    int(s * MB) for s in (0.1, 0.4, 1, 4, 16, 64, 256, 1024, 4096, 10240)
)
FIG15_SIZES_P100 = tuple(int(s * MB) for s in (0.1, 0.4, 1, 4, 16, 64, 256, 1024))


def latency_vs_size(
    spec: GPUSpec,
    methods: Sequence[str] = REDUCTION_METHODS,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> Dict[str, List[ReductionResult]]:
    """Fig 15: latency of each method across input sizes."""
    if sizes is None:
        sizes = FIG15_SIZES_V100 if spec.name == "V100" else FIG15_SIZES_P100
    # One input per size, shared by every method: the methods only read it.
    inputs = [make_input(s, seed) for s in sizes]
    return {
        method: [_dispatch(spec, method, data, seed) for data in inputs]
        for method in methods
    }


def bandwidth_table(
    spec: GPUSpec, size_bytes: int = GB, seed: int = 0
) -> Dict[str, float]:
    """Table VI: sustained bandwidth (GB/s) of each method at 1 GB."""
    data = make_input(size_bytes, seed)
    rows = {
        m: _dispatch(spec, m, data, seed).bandwidth_gbps for m in REDUCTION_METHODS
    }
    rows["theory"] = spec.hbm.theory_gbps
    return rows
