#!/usr/bin/env python
"""Quickstart: the synchronization-cost hierarchy of a V100, in one page.

Walks the paper's Figure 2 ladder — warp tile, coalesced group, thread
block, grid, multi-grid — asking each level what one ``sync()`` costs, then
compares the grid barrier against the implicit barrier of a second kernel
launch (the Section V trade-off).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    DGX1_V100,
    V100,
    CudaRuntime,
    KernelEnv,
    LaunchConfig,
    Node,
    NullKernel,
    coalesced_threads,
    this_grid,
    this_multi_grid,
    this_thread_block,
    tiled_partition,
)
from repro.microbench import measure_kernel_total_latency
from repro.viz import render_table


def sync_cost_ladder() -> None:
    env = KernelEnv.cooperative(V100, blocks_per_sm=2, threads_per_block=256)
    node = Node(DGX1_V100)
    menv = KernelEnv.multi_device(node, blocks_per_sm=2, threads_per_block=256)

    def cycles(group) -> float:
        return V100.ns_to_cycles(group.latency_model())

    rows = [
        ["tile<32>.sync()", cycles(tiled_partition(env, 32)), "cycles"],
        ["coalesced(16).sync()", cycles(coalesced_threads(env, 16)), "cycles"],
        ["block.sync()  (8 warps)", cycles(this_thread_block(env)), "cycles"],
        ["grid.sync()   (2 blk/SM)", this_grid(env).latency_model() / 1e3, "us"],
        ["multi_grid.sync() (8 GPUs)", this_multi_grid(menv).latency_model() / 1e3, "us"],
    ]
    print(render_table(["synchronization", "cost", "unit"], rows,
                       title="V100 synchronization ladder"))


def explicit_vs_implicit_barrier() -> None:
    env = KernelEnv.cooperative(V100, blocks_per_sm=2, threads_per_block=256)
    grid_sync_us = this_grid(env).latency_model() / 1e3

    implicit = measure_kernel_total_latency(
        lambda: CudaRuntime.single_gpu(V100, seed=1)
    )
    implicit_us = implicit.mean / 1e3

    print(render_table(
        ["barrier", "marginal cost (us)"],
        [
            ["explicit grid.sync() in a persistent kernel", grid_sync_us],
            ["implicit: launch one more kernel", implicit_us],
        ],
        title="One device-wide barrier, two ways",
    ))
    print(
        f"-> inside a persistent kernel, a grid sync costs {grid_sync_us:.2f} us; "
        f"an extra kernel launch costs {implicit_us:.2f} us — but the launch\n"
        f"   also flushes shared memory and registers, which is the data-reuse\n"
        f"   argument for cooperative kernels (Section VII)."
    )


def a_real_launch() -> None:
    rt = CudaRuntime.single_gpu(V100)

    def host():
        yield from rt.launch(NullKernel(), LaunchConfig(grid_blocks=160,
                                                        threads_per_block=256))
        yield from rt.device_synchronize()
        return rt.host_clock.read()

    t = rt.run_host(host())
    print(f"\nlaunch + cudaDeviceSynchronize round trip: {t/1e3:.2f} us")


if __name__ == "__main__":
    sync_cost_ladder()
    print()
    explicit_vs_implicit_barrier()
    a_real_launch()
