"""Multi-GPU reductions (Section VII-E, Figs 13/14/16).

Two implementations over a DGX-style node:

* **multi-grid** (Fig 13): one multi-device cooperative launch; every GPU
  grid-strides its shard, peer-writes its partials toward GPU 0 in
  ``ceil(log2(n))`` gather steps with a ``multi_grid.sync()`` between
  steps, and GPU 0's block 0 finishes.  A single persistent kernel — the
  programmability argument of Section VII-E.
* **CPU-side barrier** (Fig 14): one OpenMP thread per GPU, traditional
  kernels, ``cudaDeviceSynchronize`` + ``#pragma omp barrier`` between
  gather steps, final kernel on GPU 0.

Throughput is reported in steady state (persistent kernel resident /
pipeline warm), matching the paper's Fig 16 protocol where launch cost is
amortized over iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.cudasim.kernel import LaunchConfig, WorkKernel
from repro.cudasim.runtime import CudaRuntime
from repro.host.openmp import OmpTeam
from repro.reduction.block import block_reduce_cycles
from repro.reduction.device import InputData, VirtualData, _expected_sum, _nbytes
from repro.sim.arch import NodeSpec
from repro.sim.node import Node
from repro.sync import MultiGridGroup
from repro.util.units import GB

__all__ = [
    "MultiGpuReductionResult",
    "reduce_multigrid",
    "reduce_cpu_barrier",
    "throughput_vs_gpu_count",
]


@dataclass(frozen=True)
class MultiGpuReductionResult:
    """Outcome of one multi-GPU reduction."""

    method: str
    gpu_count: int
    size_bytes: int
    value: float
    expected: float
    total_ns: float

    @property
    def correct(self) -> bool:
        return bool(np.isclose(self.value, self.expected, rtol=1e-9))

    @property
    def throughput_gbps(self) -> float:
        return self.size_bytes / self.total_ns if self.total_ns > 0 else 0.0


def _gather_steps(n_gpus: int) -> int:
    return max(0, math.ceil(math.log2(n_gpus))) if n_gpus > 1 else 0


def _shard_sums(data: InputData, n_gpus: int) -> List[float]:
    if isinstance(data, VirtualData):
        total = data.expected_sum
        return [total] + [0.0] * (n_gpus - 1)
    arr = np.asarray(data, dtype=np.float64)
    return [float(c.sum()) for c in np.array_split(arr, n_gpus)]


def _partials_nbytes(node: Node, blocks_per_sm: int, threads: int) -> int:
    # One float64 partial per block.
    return blocks_per_sm * node.spec.gpu.sm_count * 8


def reduce_multigrid(
    node_spec: NodeSpec,
    data: InputData,
    gpu_count: Optional[int] = None,
    blocks_per_sm: int = 2,
    threads_per_block: int = 512,
    seed: int = 0,
) -> MultiGpuReductionResult:
    """Fig 13: persistent multi-device kernel with multi-grid barriers."""
    n = gpu_count if gpu_count is not None else node_spec.gpu_count
    node = Node(node_spec, gpu_count=n)
    gpu = node_spec.gpu
    nbytes = _nbytes(data)
    expected = _expected_sum(data)
    shards = _shard_sums(data, n)

    steps = _gather_steps(n)
    # The persistent kernel's barrier cost: the multi-grid scope's closed
    # form (local phase + topology-dependent cross phase).
    mgrid_sync_ns = MultiGridGroup(
        node, blocks_per_sm, threads_per_block, gpu_ids=range(n)
    ).latency_model()
    partial_bytes = _partials_nbytes(node, blocks_per_sm, threads_per_block)
    transfer_ns = (
        node.interconnect.peer_transfer_ns(1, 0, partial_bytes) if n > 1 else 0.0
    )
    tail_ns = gpu.cycles_to_ns(
        block_reduce_cycles(gpu, blocks_per_sm * gpu.sm_count, 1024).total_cycles
    )

    # Steady-state iteration time of the persistent kernel: local streaming
    # (largest shard bounds), then per gather step a partial transfer and a
    # multi-grid barrier, then the final block reduce on GPU 0.
    shard_bytes = math.ceil(nbytes / n)
    stream_ns = shard_bytes / gpu.hbm.effective_gbps("grid")
    total_ns = stream_ns + steps * (transfer_ns + mgrid_sync_ns) + tail_ns

    value = float(sum(shards))
    return MultiGpuReductionResult(
        method="mgrid",
        gpu_count=n,
        size_bytes=nbytes,
        value=value,
        expected=expected,
        total_ns=total_ns,
    )


def reduce_cpu_barrier(
    node_spec: NodeSpec,
    data: InputData,
    gpu_count: Optional[int] = None,
    blocks_per_sm: int = 2,
    threads_per_block: int = 512,
    seed: int = 0,
) -> MultiGpuReductionResult:
    """Fig 14: OpenMP thread per GPU, implicit barriers + omp barriers.

    Runs the full host choreography on the engine (launches, device syncs,
    barriers, peer copies) and reports the steady-state iteration time.
    """
    n = gpu_count if gpu_count is not None else node_spec.gpu_count
    rt = CudaRuntime.for_node(node_spec, gpu_count=n, seed=seed)
    gpu = node_spec.gpu
    nbytes = _nbytes(data)
    expected = _expected_sum(data)
    shards = _shard_sums(data, n)
    steps = _gather_steps(n)
    team = OmpTeam(rt, n_threads=n)

    shard_bytes = math.ceil(nbytes / n)
    stream_ns = shard_bytes / gpu.hbm.effective_gbps("implicit")
    partial_bytes = _partials_nbytes(rt.node, blocks_per_sm, threads_per_block)
    tail_ns = gpu.cycles_to_ns(
        block_reduce_cycles(gpu, blocks_per_sm * gpu.sm_count, 1024).total_cycles
    )
    eps = gpu.launch_calib("traditional").exec_null_ns
    n_blocks = blocks_per_sm * gpu.sm_count
    cfg = LaunchConfig(n_blocks, threads_per_block)

    state: dict = {"t0": 0.0, "t1": 0.0, "value": 0.0}

    def worker(tid: int) -> Generator:
        k1 = WorkKernel(eps + stream_ns, name=f"sum-gpu{tid}")
        if tid == 0:
            state["t0"] = rt.host_clock.read_exact()
        yield from rt.launch(k1, cfg, device=tid)
        yield from rt.device_synchronize(device=tid)
        yield from team.barrier(tid)
        # Gather tree: in step s, the upper half of the active GPUs push
        # their partials one level down, then everyone re-synchronizes.
        active = n
        for _ in range(steps):
            half = (active + 1) // 2
            if half <= tid < active:
                dst = tid - half
                copy_ns = rt.node.interconnect.peer_transfer_ns(
                    tid, dst, partial_bytes
                )
                k_copy = WorkKernel(eps + copy_ns, name=f"copy{tid}->{dst}")
                yield from rt.launch(k_copy, LaunchConfig(1, 256), device=tid)
            yield from rt.device_synchronize(device=tid)
            yield from team.barrier(tid)
            active = half
        if tid == 0:
            k2 = WorkKernel(eps + tail_ns, name="final")
            yield from rt.launch(k2, LaunchConfig(1, 1024), device=0)
            yield from rt.device_synchronize(device=0)
            state["value"] = float(sum(shards))
            state["t1"] = rt.host_clock.read_exact()

    team.run(worker)
    # Steady state: exclude the first kernel's dispatch pipeline fill, which
    # repeated iterations hide (the multi-grid variant is likewise measured
    # with its persistent kernel already resident).
    pipeline_fill = gpu.launch_calib("traditional").dispatch_ns
    total_ns = max(state["t1"] - state["t0"] - pipeline_fill, 1.0)
    return MultiGpuReductionResult(
        method="cpu_barrier",
        gpu_count=n,
        size_bytes=nbytes,
        value=state["value"],
        expected=expected,
        total_ns=total_ns,
    )


def throughput_vs_gpu_count(
    node_spec: NodeSpec,
    size_bytes: int = 8 * GB,
    gpu_counts: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> Dict[str, Dict[int, float]]:
    """Fig 16: reduction throughput (GB/s) for both methods vs GPU count."""
    counts = (
        list(gpu_counts)
        if gpu_counts is not None
        else list(range(1, node_spec.gpu_count + 1))
    )
    from repro.reduction.device import make_input

    data = make_input(size_bytes, seed)
    out: Dict[str, Dict[int, float]] = {"mgrid": {}, "cpu_barrier": {}}
    for n in counts:
        out["mgrid"][n] = reduce_multigrid(
            node_spec, data, gpu_count=n, seed=seed
        ).throughput_gbps
        out["cpu_barrier"][n] = reduce_cpu_barrier(
            node_spec, data, gpu_count=n, seed=seed
        ).throughput_gbps
    return out
