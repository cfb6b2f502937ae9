"""Architecture specifications and calibration tables.

Every number that shapes simulated timing lives here, grouped into
calibration blocks, each annotated with its source:

* ``[T1]`` .. ``[T8]``  — Tables I–VIII of Zhang et al. 2020.
* ``[F4]`` .. ``[F18]`` — Figures of the paper (values fit by least squares
  against the published heat-maps; ``docs/calibration.md`` lists each fit
  and the experiments that read it).
* ``[V100-WP]`` / ``[P100-WP]`` — Nvidia whitepapers (SM counts, occupancy
  limits, theoretical bandwidth).

The micro-benchmarks never read these tables; they measure the simulated
machine through the paper's own protocols.  Tests close the loop by checking
the measurements against the published values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Tuple

__all__ = [
    "WarpSyncCalib",
    "BlockSyncCalib",
    "GridSyncCalib",
    "MultiGridLocalCalib",
    "CrossGpuCalib",
    "LaunchCalib",
    "SharedMemCalib",
    "HBMCalib",
    "InstructionCalib",
    "WarpReduceCalib",
    "GPUSpec",
    "NodeSpec",
    "V100",
    "P100",
    "DGX1_V100",
    "DGX2_V100",
    "P100_PCIE_NODE",
    "get_gpu_spec",
    "get_node_spec",
    "GPU_REGISTRY",
    "NODE_REGISTRY",
]


# ---------------------------------------------------------------------------
# Calibration blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarpSyncCalib:
    """Warp-level synchronization latency/throughput.  Source: [T2].

    Latencies are in SM cycles; throughputs in operations per cycle per SM
    (the paper's best-over-all-configurations measurement).  ``coalesced``
    distinguishes the partial-warp case (group size 1–31) from the
    full-warp case (32), which V100 executes on a faster path.
    """

    tile_latency: float
    tile_throughput: float
    shuffle_tile_latency: float
    shuffle_tile_throughput: float
    coalesced_partial_latency: float
    coalesced_partial_throughput: float
    coalesced_full_latency: float
    coalesced_full_throughput: float
    shuffle_coalesced_latency: float
    shuffle_coalesced_throughput: float
    # Whether warp-level sync actually blocks threads until all arrive.
    # Volta: yes (per-thread program counters).  Pascal: no — Section VIII-A
    # shows P100 does not hold threads at the barrier, which is also why its
    # "latency" is ~1 cycle. [F18]
    blocking: bool = True


@dataclass(frozen=True)
class BlockSyncCalib:
    """Block-level (``__syncthreads``) barrier model.  Sources: [T2],[F4],[T4].

    * ``base_latency_cycles`` — single-warp sync latency ([T2] Block row).
    * ``per_warp_latency_cycles`` — marginal latency per extra warp in one
      sync (single-shot; fit so that 5 syncs of a 1024-thread block land on
      [T4]'s "sync ltc": V100 420 cy, P100 2135 cy).
    * ``per_warp_service_cycles`` — steady-state barrier-unit service
      interval per warp arrival; its inverse is the saturated per-warp
      throughput of [T2]/[F4] (V100 0.475, P100 0.091 warp-sync/cycle).
    """

    base_latency_cycles: float
    per_warp_latency_cycles: float
    per_warp_service_cycles: float


@dataclass(frozen=True)
class GridSyncCalib:
    """Grid-level barrier (cooperative groups ``grid.sync()``).  Source: [F5].

    The simulated protocol is: intra-block arrive, one leader warp per block
    performs an L2 atomic (serialized), the last arrival broadcasts a release
    flag (``base_ns`` covers the flag round-trips plus intra-block
    arrive/release), and warp release re-dispatch costs
    ``per_warp_release_ns`` per resident warp per SM.

    The atomic service time degrades linearly with the number of
    outstanding blocks (L2 contention), giving the quadratic block term the
    heat-maps show at 32 blocks/SM.  Relative least-squares fit over every
    populated [F5] cell (b = blocks/SM, w = warps/SM; docs/calibration.md):

    V100: T(us) = 0.904 + 0.4174*b + 0.00494*b^2 + 0.0265*w   (mean err 4.4%)
    P100: T(us) = 1.032 + 0.5376*b + 0.01118*b^2 + 0.0212*w   (mean err 5.1%)
    """

    base_ns: float
    per_blockpersm_ns: float       # c1: ns per (blocks/SM)
    per_blockpersm2_ns: float      # contention: ns per (blocks/SM)^2
    per_warp_release_ns: float     # c2: ns per (warps/SM)

    def atomic_service_ns(self, blocks_per_sm: int, sm_count: int) -> float:
        """Per-block L2 atomic service time under ``blocks_per_sm`` load."""
        return (
            self.per_blockpersm_ns + self.per_blockpersm2_ns * blocks_per_sm
        ) / sm_count


@dataclass(frozen=True)
class MultiGridLocalCalib:
    """Single-GPU component of multi-grid sync.  Sources: [F7],[F8].

    Multi-grid sync is grid sync plus system-scope memory fences; the
    release wavefront's flag traffic contends quadratically in the warp
    count, which dominates the V100 panel.  Relative least-squares fit over
    the 1-GPU panels (b = blocks/SM, w = warps/SM; docs/calibration.md):

    V100: T(us) = 0.859 + 0.4363*b + 0.0576*w + 0.00323*w^2      (mean 3.6%)
    P100: T(us) = 0.847 + 0.4636*b + 0.0209*w + 0.00296*b*w
                  + 0.00026*w^2                                   (mean 4.7%)
    """

    base_ns: float
    per_block_ns: float        # ns per (blocks/SM)
    per_warp_ns: float         # ns per (warps/SM)
    per_block_warp_ns: float   # ns per (blocks/SM * warps/SM)
    per_warp2_ns: float        # ns per (warps/SM)^2

    def local_ns(self, blocks_per_sm: int, warps_per_sm: int) -> float:
        """Single-GPU multi-grid barrier latency."""
        b, w = blocks_per_sm, warps_per_sm
        return (
            self.base_ns
            + self.per_block_ns * b
            + self.per_warp_ns * w
            + self.per_block_warp_ns * b * w
            + self.per_warp2_ns * w * w
        )


@dataclass(frozen=True)
class CrossGpuCalib:
    """Inter-GPU phase of multi-grid sync.  Sources: [F7],[F8],[F9].

    ``T_cross(us) = base + per_gpu*(n-1) + hop2_penalty*[max_hop>=2]
                    + per_2hop_gpu*n_2hop + release_coef*(b^1.5 - 1)``

    where hop counts come from the interconnect graph (DGX-1 NVLink hybrid
    cube-mesh / PCIe tree) and ``b`` is blocks per SM.  The two-hop penalty
    is what produces the paper's 2–5 GPU vs 6–8 GPU plateaus.
    """

    base_ns: float
    per_gpu_ns: float
    hop2_penalty_ns: float
    per_2hop_gpu_ns: float
    release_coef_ns: float
    release_exponent: float = 1.5


@dataclass(frozen=True)
class LaunchCalib:
    """Stream/launch pipeline for one launch function.  Sources: [T1],[F9].

    Pipeline model (see cudasim/stream.py)::

        enqueue_k   = host API call, ``api_ns`` on the calling thread
        start_k     = max(enqueue_end_k + dispatch_ns,
                          end_{k-1} + gap_ns + max(0, dispatch_ns - exec_{k-1}))
        end_k       = start_k + exec_k
        sync return = end_last + sync_return_ns

    The kernel-fusion method then measures ``gap_ns`` (the paper's "launch
    overhead") and the Fig-3 estimator measures ``gap_ns + dispatch_ns``
    (the paper's "kernel total latency" for a null kernel):
    traditional 1081/8888 ns, cooperative 1063/10248 ns,
    multi-device 1258/10874 ns. [T1]

    Multi-device launches coordinate n streams: ``gap`` grows ~quadratically
    in GPU count (anchors 1.26 us @ 1 GPU, 67.2 us @ 8 GPUs [F9]) and the
    dispatch pipeline deepens ~linearly (the paper's ~250 us saturation
    threshold for 8 GPUs, Section IX-B).
    """

    api_ns: float
    dispatch_ns: float
    gap_ns: float
    sync_return_ns: float
    exec_null_ns: float
    # Multi-device scaling (zero for single-device launch types).
    gap_quad_ns_per_gpu2: float = 0.0
    dispatch_ns_per_extra_gpu: float = 0.0

    def __post_init__(self):
        # Every field is a duration the host or the stream adds to a time,
        # and the engine rejects a negative or non-finite delay wherever it
        # meets one.  Rejecting it here keeps the event path and the host
        # timeline replay (repro.cudasim.timeline) refusing the same inputs.
        for name, value in vars(self).items():
            if not 0.0 <= value < float("inf"):
                raise ValueError(
                    f"LaunchCalib.{name} must be finite and >= 0, got {value!r}"
                )

    def gap_for(self, n_gpus: int) -> float:
        """Inter-kernel gap for an ``n_gpus``-wide launch."""
        return self.gap_ns + self.gap_quad_ns_per_gpu2 * (n_gpus**2 - 1)

    def dispatch_for(self, n_gpus: int) -> float:
        """Dispatch pipeline depth for an ``n_gpus``-wide launch."""
        return self.dispatch_ns + self.dispatch_ns_per_extra_gpu * (n_gpus - 1)


@dataclass(frozen=True)
class SharedMemCalib:
    """Shared-memory proxy-kernel model.  Source: [T3].

    The paper's reduction proxy (Fig 10) is a dependent load+add chain.
    ``chain_latency_cycles`` is its iteration latency ([T3]: 13.0 / 18.5
    cycles); per-thread streaming bandwidth is ``8 B / chain_latency`` and
    scales with thread count until the SM-level cap ``sm_cap_bytes_per_cycle``
    ([T3]: 215 / 141 B/cycle measured with 1024 threads).
    """

    chain_latency_cycles: float
    sm_cap_bytes_per_cycle: float
    element_bytes: int = 8  # double precision, as in the paper


@dataclass(frozen=True)
class HBMCalib:
    """Device-memory bandwidth model.  Sources: [T6],[F15].

    ``theory_gbps`` is the vendor figure the paper quotes in [T6].
    ``eff_streaming`` is the grid-stride streaming efficiency of the
    *implicit* (multi-kernel) reduction; the per-method relative factors
    capture the small persistent-kernel / library losses visible in [T6].
    """

    theory_gbps: float
    eff_streaming: float
    rel_eff_grid_persistent: float
    rel_eff_cub: float
    rel_eff_cuda_sample: float

    def effective_gbps(self, method: str = "implicit") -> float:
        """Effective bandwidth in GB/s for a reduction ``method``."""
        base = self.theory_gbps * self.eff_streaming
        rel = {
            "implicit": 1.0,
            "grid": self.rel_eff_grid_persistent,
            "cub": self.rel_eff_cub,
            "cuda_sample": self.rel_eff_cuda_sample,
        }
        try:
            return base * rel[method]
        except KeyError:
            raise ValueError(f"unknown reduction method {method!r}") from None


@dataclass(frozen=True)
class InstructionCalib:
    """Scalar instruction latencies (cycles).  Sources: Section IX-D, [T5].

    ``fadd`` is the paper's cross-validation instruction (4 cy V100,
    6 cy P100, matching Jia et al.).  ``dadd`` and the shared-memory
    latencies are fit from the [T5] reduction latencies.
    """

    fadd: float
    dadd: float
    shared_ld: float
    shared_st: float
    timer_read: float = 2.0
    # Serialized cost of one arm of a fully divergent 32-way branch ladder
    # (the Fig 17 protocol).  Fit so the Fig 18 start-timer staircase spans
    # the published range (~14k cycles on V100, ~9k on P100 across 32 arms).
    divergent_arm_cycles: float = 430.0


@dataclass(frozen=True)
class WarpReduceCalib:
    """Per-method issue overheads for the warp reduction study.  Source: [T5].

    Each 5-step tree reduction has per-step cost =
    (memory path) + dadd + (sync/shuffle op) + method-specific issue
    overhead.  The overheads below are the calibrated residuals — in real
    SASS they correspond to extra MOV/LOP/BSYNC instructions emitted per
    method (coalesced-group creation is notoriously expensive, hence the
    large ``coa_shuffle_create`` term).
    """

    loop_base_cycles: float        # loop setup + drain around the 5 steps
    serial_base_cycles: float      # setup of the 31-iteration serial loop
    nosync_step_extra: float       # pipelined unsafe step residual
    volatile_step_extra: float     # volatile ld/st path residual
    tile_step_extra: float
    coa_step_extra: float
    tile_shuffle_step_extra: float
    coa_shuffle_create: float      # per-step coalesced group materialization


# ---------------------------------------------------------------------------
# GPU specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GPUSpec:
    """Full description of one GPU model (hardware limits + calibration)."""

    name: str
    compute_capability: Tuple[int, int]
    sm_count: int
    partitions_per_sm: int
    warp_size: int
    max_threads_per_sm: int
    max_warps_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    shared_mem_per_sm: int
    shared_mem_per_block: int
    registers_per_sm: int
    freq_mhz: float
    has_nanosleep: bool
    independent_thread_scheduling: bool
    warp_sync: WarpSyncCalib
    block_sync: BlockSyncCalib
    grid_sync: GridSyncCalib
    multigrid_local: MultiGridLocalCalib
    shared_mem: SharedMemCalib
    hbm: HBMCalib
    instructions: InstructionCalib
    warp_reduce: WarpReduceCalib
    # A mapping, which the generated hash cannot take, so the spec defines
    # its own __hash__ that folds in the table's items: equality compares
    # the launch table, and specs that differ only there must not share one
    # hash.  Hashability lets the warp-reduce latency memo
    # (repro.reduction.warp) and the node's cross-GPU latency memo
    # (repro.sim.node) key on a spec.
    launch: Dict[str, LaunchCalib]

    def __hash__(self) -> int:
        return hash((_gpu_spec_fields(self), tuple(sorted(self.launch.items()))))

    # -- convenience -----------------------------------------------------

    @property
    def cycle_ns(self) -> float:
        """Duration of one SM cycle in nanoseconds."""
        return 1e3 / self.freq_mhz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.cycle_ns

    def ns_to_cycles(self, ns: float) -> float:
        return ns / self.cycle_ns

    def launch_calib(self, launch_type: str) -> LaunchCalib:
        try:
            return self.launch[launch_type]
        except KeyError:
            raise ValueError(
                f"unknown launch type {launch_type!r}; "
                f"expected one of {sorted(self.launch)}"
            ) from None


#: Every GPUSpec field but ``launch``, as one tuple, for its __hash__.
_gpu_spec_fields = attrgetter(*(f.name for f in fields(GPUSpec) if f.name != "launch"))


@dataclass(frozen=True)
class NodeSpec:
    """A multi-GPU node: GPU model, count, interconnect, cross-GPU calib."""

    name: str
    gpu: GPUSpec
    gpu_count: int
    interconnect: str  # "nvlink-cube-mesh" | "pcie"
    cross_gpu: CrossGpuCalib
    # Host-side model: OpenMP barrier cost = base + per_log2_gpu * log2(n).
    # Fit to [F9]'s CPU-side barrier curve (9.3 us @ 1 GPU, 10.6 us @ 8
    # GPUs); the per-iteration kernel cost api+dispatch+eps+sync covers the
    # rest — "relatively close to the kernel total latency of a null
    # kernel", as the paper notes.
    omp_barrier_base_ns: float = 200.0
    omp_barrier_log2_ns: float = 330.0
    host_clock_jitter_ns: float = 120.0

    def omp_barrier_ns(self, n_threads: int) -> float:
        """Cost of one OpenMP barrier across ``n_threads`` pinned threads."""
        import math

        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if n_threads == 1:
            return self.omp_barrier_base_ns
        return self.omp_barrier_base_ns + self.omp_barrier_log2_ns * math.log2(n_threads)


# ---------------------------------------------------------------------------
# Volta V100 (DGX-1 member)  [V100-WP], Table VII
# ---------------------------------------------------------------------------

V100 = GPUSpec(
    name="V100",
    compute_capability=(7, 0),
    sm_count=80,
    partitions_per_sm=4,
    warp_size=32,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    shared_mem_per_sm=96 * 1024,
    shared_mem_per_block=96 * 1024,
    registers_per_sm=65536,
    freq_mhz=1312.0,  # [T7] default application frequency
    has_nanosleep=True,  # Volta introduced nanosleep (Section IX-B)
    independent_thread_scheduling=True,  # per-thread PCs (Section VIII-A)
    warp_sync=WarpSyncCalib(
        tile_latency=14.0,  # [T2]
        tile_throughput=0.812,
        shuffle_tile_latency=22.0,
        shuffle_tile_throughput=0.928,
        coalesced_partial_latency=108.0,
        coalesced_partial_throughput=0.167,
        coalesced_full_latency=14.0,
        coalesced_full_throughput=1.306,
        shuffle_coalesced_latency=77.0,
        shuffle_coalesced_throughput=0.121,
        blocking=True,
    ),
    block_sync=BlockSyncCalib(
        base_latency_cycles=22.0,  # [T2]
        per_warp_latency_cycles=1.94,  # [T4]: 5*(22+1.94*32) = 420 cy
        per_warp_service_cycles=1.0 / 0.475,  # [T2]/[F4] saturated throughput
    ),
    grid_sync=GridSyncCalib(
        base_ns=904.0,  # [F5] relative LSQ fit
        per_blockpersm_ns=417.4,
        per_blockpersm2_ns=4.94,
        per_warp_release_ns=26.5,
    ),
    multigrid_local=MultiGridLocalCalib(
        base_ns=859.0,  # [F8] 1-GPU panel, relative LSQ fit
        per_block_ns=436.3,
        per_warp_ns=57.6,
        per_block_warp_ns=0.0,
        per_warp2_ns=3.23,
    ),
    shared_mem=SharedMemCalib(
        chain_latency_cycles=13.0,  # [T3]
        sm_cap_bytes_per_cycle=215.0,  # [T3] 1024-thread measurement
    ),
    hbm=HBMCalib(
        theory_gbps=898.05,  # [T6]
        eff_streaming=865.40 / 898.05,  # [T6] implicit
        rel_eff_grid_persistent=855.59 / 865.40,  # [T6]
        rel_eff_cub=849.39 / 865.40,  # [T6]
        rel_eff_cuda_sample=852.98 / 865.40,  # [T6]
    ),
    instructions=InstructionCalib(
        fadd=4.0,  # Section IX-D validation (matches Jia et al.)
        dadd=8.0,
        shared_ld=19.0,
        shared_st=6.0,
        divergent_arm_cycles=430.0,  # [F18] V100 staircase ~14k cy / 32 arms
    ),
    warp_reduce=WarpReduceCalib(
        loop_base_cycles=24.0,
        serial_base_cycles=51.0,  # [T5] serial: 51 + 31*dadd = 299
        nosync_step_extra=0.0,  # [T5] nosync: 24 + 5*chain(13) = 89
        volatile_step_extra=15.6,  # [T5] volatile: 24 + 5*(19+8+15.6) = 237
        tile_step_extra=1.6,  # [T5] tile: 24 + 5*(19+8+14+1.6) = 237
        coa_step_extra=1.6,  # [T5] coa(32): same path as tile on V100
        tile_shuffle_step_extra=-2.0,  # [T5]: 24 + 5*(22+8-2) = 164
        coa_shuffle_create=162.4,  # [T5]: 24 + 5*(77+8+162.4) = 1261
    ),
    launch={
        # [T1] traditional <<<>>>.  The fusion method measures gap + eps
        # (eps = exec_null_ns, the empty kernel's drain time), so
        # gap = 1081 - eps; the Fig-3 estimator measures
        # eps + gap + (dispatch - eps) = gap + dispatch = 8888 - ... with
        # eps folded: dispatch = 8888 - 1081 + eps.
        "traditional": LaunchCalib(
            api_ns=400.0,
            dispatch_ns=8888.0 - 1081.0 + 300.0,
            gap_ns=1081.0 - 300.0,
            sync_return_ns=400.0,
            exec_null_ns=300.0,
        ),
        # [T1] cudaLaunchCooperativeKernel: fusion overhead 1063, Fig-3
        # total 10248.  The large api_ns is host-side occupancy validation;
        # it is hidden behind execution once the pipeline is busy, so the
        # fusion method still recovers gap + eps.
        "cooperative": LaunchCalib(
            api_ns=7500.0,
            dispatch_ns=10248.0 - 1063.0 + 300.0,
            gap_ns=1063.0 - 300.0,
            sync_return_ns=400.0,
            exec_null_ns=300.0,
        ),
        # [T1]/[F9] cudaLaunchCooperativeKernelMultiDevice:
        # fusion overhead(n) = 1258 + 1046.7*(n^2-1) ns
        # (anchors 1.26 us @ 1 GPU, 67.2 us @ 8 GPUs in Fig 9); the
        # dispatch pipeline deepens ~34 us per extra GPU, reproducing the
        # paper's ~250 us saturation threshold at 8 GPUs (Section IX-B).
        "multi_device": LaunchCalib(
            api_ns=8000.0,
            dispatch_ns=10874.0 - 1258.0 + 300.0,
            gap_ns=1258.0 - 300.0,
            sync_return_ns=400.0,
            exec_null_ns=300.0,
            gap_quad_ns_per_gpu2=(67200.0 - 1258.0) / 63.0,
            dispatch_ns_per_extra_gpu=34000.0,
        ),
    },
)


# ---------------------------------------------------------------------------
# Pascal P100  [P100-WP], Table VII
# ---------------------------------------------------------------------------

P100 = GPUSpec(
    name="P100",
    compute_capability=(6, 0),
    sm_count=56,
    partitions_per_sm=2,
    warp_size=32,
    max_threads_per_sm=2048,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    shared_mem_per_sm=64 * 1024,
    shared_mem_per_block=48 * 1024,
    registers_per_sm=65536,
    freq_mhz=1189.0,  # [T7]
    has_nanosleep=False,  # sleep instruction is Volta-only (Section IX-B)
    independent_thread_scheduling=False,  # lockstep warps (Section VIII-A)
    warp_sync=WarpSyncCalib(
        tile_latency=1.0,  # [T2] — effectively a no-op on Pascal
        tile_throughput=1.774,
        shuffle_tile_latency=31.0,
        shuffle_tile_throughput=0.642,
        coalesced_partial_latency=1.0,
        coalesced_partial_throughput=1.791,
        coalesced_full_latency=1.0,
        coalesced_full_throughput=1.821,
        shuffle_coalesced_latency=50.0,
        shuffle_coalesced_throughput=0.166,
        blocking=False,  # Section VIII-A: P100 does not block at warp barriers
    ),
    block_sync=BlockSyncCalib(
        base_latency_cycles=218.0,  # [T2]
        per_warp_latency_cycles=6.53,  # [T4]: 5*(218+6.53*32) = 2135 cy
        per_warp_service_cycles=1.0 / 0.091,  # [T2]/[F4]
    ),
    grid_sync=GridSyncCalib(
        base_ns=1032.0,  # [F5] relative LSQ fit
        per_blockpersm_ns=537.6,
        per_blockpersm2_ns=11.18,
        per_warp_release_ns=21.2,
    ),
    multigrid_local=MultiGridLocalCalib(
        base_ns=847.0,  # [F7] 1-GPU panel, relative LSQ fit
        per_block_ns=463.6,
        per_warp_ns=20.9,
        per_block_warp_ns=2.96,
        per_warp2_ns=0.26,
    ),
    shared_mem=SharedMemCalib(
        chain_latency_cycles=18.5,  # [T3]
        sm_cap_bytes_per_cycle=141.0,  # [T3]
    ),
    hbm=HBMCalib(
        theory_gbps=732.16,  # [T6]
        eff_streaming=592.40 / 732.16,
        rel_eff_grid_persistent=590.85 / 592.40,
        rel_eff_cub=543.96 / 592.40,
        rel_eff_cuda_sample=590.65 / 592.40,
    ),
    instructions=InstructionCalib(
        fadd=6.0,  # Section IX-D validation
        dadd=10.0,
        shared_ld=25.0,
        shared_st=8.0,
        divergent_arm_cycles=280.0,  # [F18] P100 staircase ~9k cy / 32 arms
    ),
    warp_reduce=WarpReduceCalib(
        loop_base_cycles=24.0,
        serial_base_cycles=73.0,  # [T5] serial: 73 + 31*dadd = 383
        nosync_step_extra=-0.9,  # [T5] nosync: 24 + 5*(18.5-0.9) = 112
        volatile_step_extra=16.6,  # [T5] volatile: 24 + 5*(25+10+16.6) = 282
        tile_step_extra=15.4,  # [T5] tile: 24 + 5*(25+10+1+15.4) = 281
        coa_step_extra=9.4,  # [T5] coa: 24 + 5*(25+10+1+9.4) = 251
        tile_shuffle_step_extra=-3.4,  # [T5]: 24 + 5*(31+10-3.4) = 212
        coa_shuffle_create=219.8,  # [T5]: 24 + 5*(50+10+219.8) = 1423
    ),
    launch={
        # The paper only publishes Table I for V100 (nanosleep is needed for
        # the fusion measurement and is Volta-only).  P100 launch constants
        # follow the same structure, scaled for the PCIe-attached host and
        # chosen to reproduce the [F15]/[F16] small-size floors.
        "traditional": LaunchCalib(
            api_ns=500.0,
            dispatch_ns=8500.0,
            gap_ns=850.0,
            sync_return_ns=450.0,
            exec_null_ns=350.0,
        ),
        "cooperative": LaunchCalib(
            api_ns=7800.0,
            dispatch_ns=9800.0,
            gap_ns=820.0,
            sync_return_ns=450.0,
            exec_null_ns=350.0,
        ),
        "multi_device": LaunchCalib(
            api_ns=8500.0,
            dispatch_ns=10200.0,
            gap_ns=1050.0,
            sync_return_ns=450.0,
            exec_null_ns=350.0,
            gap_quad_ns_per_gpu2=1100.0,
            dispatch_ns_per_extra_gpu=36000.0,
        ),
    },
)


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

# DGX-1 with 8 V100s over the NVLink hybrid cube-mesh. [F8],[F9]
DGX1_V100 = NodeSpec(
    name="DGX-1 (8x V100, NVLink)",
    gpu=V100,
    gpu_count=8,
    interconnect="nvlink-cube-mesh",
    cross_gpu=CrossGpuCalib(
        base_ns=4830.0,  # [F8] fit (docs/calibration.md)
        per_gpu_ns=193.0,
        hop2_penalty_ns=10490.0,
        per_2hop_gpu_ns=960.0,
        release_coef_ns=110.0,
    ),
)

# DGX-2-style box: 16 V100s on an NVSwitch crossbar.  Not a paper platform —
# it exists for scenario sweeps beyond the DGX-1 cube-mesh.  Every pair of
# GPUs is one switch traversal apart, so the calibration drops the two-hop
# penalty entirely and charges a slightly higher per-GPU increment for the
# switch traversal; the 1-hop base matches the DGX-1 fit so that the 2-GPU
# configurations of both boxes coincide.
DGX2_V100 = NodeSpec(
    name="DGX-2 (16x V100, NVSwitch)",
    gpu=V100,
    gpu_count=16,
    interconnect="nvswitch",
    cross_gpu=CrossGpuCalib(
        base_ns=4830.0,
        per_gpu_ns=240.0,
        hop2_penalty_ns=0.0,
        per_2hop_gpu_ns=0.0,
        release_coef_ns=110.0,
    ),
)

# Dual-P100 server over PCIe. [F7]
P100_PCIE_NODE = NodeSpec(
    name="2x P100 (PCIe)",
    gpu=P100,
    gpu_count=2,
    interconnect="pcie",
    cross_gpu=CrossGpuCalib(
        base_ns=5840.0,  # [F7] fit: 7.29 us - 1.45 us at (1 blk/SM, 32 thr)
        per_gpu_ns=200.0,
        hop2_penalty_ns=0.0,
        per_2hop_gpu_ns=0.0,
        release_coef_ns=199.0,
    ),
)


GPU_REGISTRY: Dict[str, GPUSpec] = {"V100": V100, "P100": P100}
NODE_REGISTRY: Dict[str, NodeSpec] = {
    "DGX1": DGX1_V100,
    "DGX2": DGX2_V100,
    "P100x2": P100_PCIE_NODE,
}


def get_gpu_spec(name: str) -> GPUSpec:
    """Look up a GPU spec by name (case-insensitive)."""
    try:
        return GPU_REGISTRY[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown GPU {name!r}; available: {sorted(GPU_REGISTRY)}"
        ) from None


def get_node_spec(name: str) -> NodeSpec:
    """Look up a node spec by name."""
    for key, spec in NODE_REGISTRY.items():
        if key.lower() == name.lower():
            return spec
    raise ValueError(f"unknown node {name!r}; available: {sorted(NODE_REGISTRY)}")
