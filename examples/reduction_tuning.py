#!/usr/bin/env python
"""Model-driven reduction tuning — the paper's Section VII case study.

For a range of input sizes, asks the Little's-law performance model which
worker configuration to use (Eq 2/4/5, Table IV), then *validates* the
device-wide recommendation by actually running all four reduction
implementations (implicit two-kernel, grid-sync persistent, CUB-like,
CUDA-sample-like) and reporting latency and bandwidth.

Run:  python examples/reduction_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro.reduction import (
    bandwidth_table,
    recommend,
    reduce_cub,
    reduce_cuda_sample,
    reduce_grid_sync,
    reduce_implicit,
)
from repro.sim.arch import P100, V100
from repro.util.units import GB, KB, MB
from repro.viz import render_table


def model_recommendations() -> None:
    rows = []
    for size in (64, 256, 2 * KB, 16 * KB, 1 * MB, 100 * MB):
        plan = recommend(V100, size)
        rows.append([f"{size} B" if size < KB else f"{size // KB} KB",
                     plan.scope, plan.device_method or "-", plan.rationale[:58]])
    print(render_table(["input", "scope", "method", "why"], rows,
                       title="V100 reduction plans (Eq 2/4/5 decisions)"))


def validate_device_wide(spec) -> None:
    # A real 64 MB array, so the sum check below adds up actual values.
    data = np.random.default_rng(42).uniform(size=64 * MB // 8)
    results = [
        reduce_implicit(spec, data),
        reduce_grid_sync(spec, data),
        reduce_cub(spec, data),
        reduce_cuda_sample(spec, data),
    ]
    rows = [
        [r.method, r.latency_us, r.bandwidth_gbps, "ok" if r.correct else "WRONG"]
        for r in results
    ]
    print(render_table(
        ["method", "latency (us)", "GB/s", "sum check"],
        rows, title=f"{spec.name}: 64 MB reduction, all four implementations",
    ))
    best = min(results, key=lambda r: r.total_ns)
    print(f"-> fastest: {best.method} (the paper's Fig 15 answer)\n")


def table6_bandwidths() -> None:
    for spec in (V100, P100):
        rows = [[m, v] for m, v in bandwidth_table(spec, size_bytes=GB).items()]
        print(render_table(["method", "GB/s"], rows,
                           title=f"{spec.name} @ 1 GB (reproduces Table VI)"))
        print()


if __name__ == "__main__":
    model_recommendations()
    print()
    validate_device_wide(V100)
    validate_device_wide(P100)
    table6_bandwidths()
