"""Wong-style intra-SM micro-benchmarks (Section IX-C).

Wong's method builds a chain of *dependent* operations, reads the SM clock
register before and after, and divides by the repeat count.  It is exact
within one SM (the clock is local) — the paper uses it for warp-level
instruction latencies and we additionally use it for the shared-memory
proxy kernel of Section VII-B (Fig 10), whose measured bandwidth/latency
feeds Table III.  The proxy is a capacity-1 pipe (the SM's load/store
port): where shortcuts are allowed a lone warp replays its own arithmetic
and equal saturating warps fold, exactly as the SM pipes of
:mod:`repro.sim.sm` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

from repro.cudasim import instructions as ins
from repro.sim.arch import GPUSpec
from repro.sim.engine import Engine, Resource, Timeout, shortcuts_allowed
from repro.sim.exec_thread import ThreadCtx, WarpExecutor
from repro.sim.sm import _check_counts, _fold, _outlasts, _pipe_ns, _replay_lone

__all__ = [
    "measure_instruction_latency_wong",
    "SharedBandwidthResult",
    "measure_shared_bandwidth",
]


def measure_instruction_latency_wong(
    spec: GPUSpec,
    instruction: str = "fadd",
    repeats: int = 512,
) -> float:
    """Latency (cycles) of one instruction via a dependent chain.

    ``instruction`` is one of ``"fadd"``, ``"dadd"``, ``"chain"`` (the
    shared-memory load+add iteration).  Uses a single thread so the chain
    is strictly dependent, exactly as in the paper's Fig 19 kernel.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    op_map = {
        "fadd": lambda: ins.FAdd(count=repeats),
        "dadd": lambda: ins.DAdd(count=repeats),
        "chain": lambda: ins.ChainStep(count=repeats),
    }
    try:
        make_op = op_map[instruction]
    except KeyError:
        raise ValueError(
            f"unknown instruction {instruction!r}; expected {sorted(op_map)}"
        ) from None

    result: dict = {}

    def program(ctx: ThreadCtx) -> Generator:
        if ctx.tid != 0:
            return
        t0 = yield ins.ReadClock()
        yield make_op()
        t1 = yield ins.ReadClock()
        result["cycles"] = t1 - t0

    WarpExecutor(spec, nthreads=1).run(program)
    # Subtract the trailing clock-read cost included in the window.
    window = result["cycles"] - spec.instructions.timer_read
    return window / repeats


@dataclass(frozen=True)
class SharedBandwidthResult:
    """Measured shared-memory proxy bandwidth (the Table III inputs)."""

    n_threads: int
    bandwidth_bytes_per_cycle: float
    chain_latency_cycles: float

    @property
    def concurrency_bytes(self) -> float:
        """Little's law (Eq 1): C = T x Thr."""
        return self.bandwidth_bytes_per_cycle * self.chain_latency_cycles


def measure_shared_bandwidth(
    spec: GPUSpec,
    n_threads: int,
    iterations: int = 64,
) -> SharedBandwidthResult:
    """Bandwidth of the Fig-10 proxy loop for a given thread count.

    Each warp iterates the dependent load+add chain (one 8-byte element per
    thread per iteration); all warps share the SM's load/store port, whose
    byte throughput is capped by the architecture (Table III's 1024-thread
    row is port-bound; the 1-warp row is latency-bound).

    Where shortcuts are allowed a lone warp replays its own arithmetic
    and equal full warps whose port never idles fold, both exactly; every
    other run is event-precise on a fresh engine.  A count that is not an
    integer >= 1, a non-finite or negative port time or chain latency, or
    a port throughput (``shared_mem.sm_cap_bytes_per_cycle``) that is not
    finite and positive raises :class:`ValueError`.
    """
    _check_counts(n_threads=n_threads, iterations=iterations)
    if n_threads > spec.max_threads_per_block:
        raise ValueError(f"n_threads must be in [1,{spec.max_threads_per_block}]")

    sm = spec.shared_mem
    if not 0.0 < sm.sm_cap_bytes_per_cycle < math.inf:
        raise ValueError(
            f"{spec.name}: shared_mem.sm_cap_bytes_per_cycle = "
            f"{sm.sm_cap_bytes_per_cycle!r}; a throughput must be finite and > 0"
        )
    full_warps, rem = divmod(n_threads, spec.warp_size)
    warp_threads = [spec.warp_size] * full_warps + ([rem] if rem else [])
    chain_ns = _pipe_ns(spec, sm.chain_latency_cycles, "shared_mem.chain_latency_cycles")
    # A warp holds the port for its bytes at the SM's byte throughput.
    port_ns = [
        _pipe_ns(
            spec, threads * sm.element_bytes / sm.sm_cap_bytes_per_cycle,
            "threads * shared_mem.element_bytes / shared_mem.sm_cap_bytes_per_cycle",
        )
        for threads in warp_threads
    ]
    n_warps = len(warp_threads)
    shortcut = shortcuts_allowed()

    if shortcut and n_warps == 1:
        elapsed = _replay_lone(port_ns[0], 1, iterations, chain_ns)
    # Saturated: round 1 drains at n_warps ports, after every warp's chain
    # latency has ended, and a warp is back within one chain latency of its
    # grant, before the other warps have each held the port once more.
    elif shortcut and not rem and _outlasts(
        n_warps, port_ns[0], chain_ns, n_warps * iterations * port_ns[0]
    ):
        elapsed = _fold(port_ns[0], n_warps * iterations)
    else:
        elapsed = _run_shared_bandwidth(port_ns, iterations, chain_ns)

    total_bytes = n_threads * sm.element_bytes * iterations
    cycles = spec.ns_to_cycles(elapsed)
    return SharedBandwidthResult(
        n_threads=n_threads,
        bandwidth_bytes_per_cycle=total_bytes / cycles,
        chain_latency_cycles=sm.chain_latency_cycles,
    )


def _run_shared_bandwidth(port_ns: list[float], iterations: int, chain_ns: float) -> float:
    """Event-precise proxy run on a fresh engine, one process per warp;
    returns its end (ns)."""
    eng = Engine()
    port = Resource(eng, capacity=1, name="smem-port")

    def warp_proc(t_port: Timeout) -> Generator:
        for _ in range(iterations):
            start = eng.now
            yield port.acquire()
            yield t_port
            port.release()
            remaining = chain_ns - (eng.now - start)
            if remaining > 0:
                yield Timeout(remaining)

    for i, ns in enumerate(port_ns):
        eng.process(warp_proc(Timeout(ns)), name=f"bw-warp{i}")
    return eng.run()
