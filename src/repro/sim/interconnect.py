"""Multi-GPU interconnect topologies.

The paper attributes its multi-grid synchronization plateaus (2–5 GPUs vs
6–8 GPUs, Fig 8/9) to "the internal NVLink network structure of DGX-1".
We encode the actual DGX-1 (V100) NVLink hybrid cube-mesh as a link list,
keep it as adjacency sets, and derive hop counts from it by breadth-first
search, so the plateau structure *emerges from the topology* rather than
being tabulated.

DGX-1 NVLink link list (Nvidia DGX-1 system architecture whitepaper)::

    quad 0: 0-1 0-2 0-3  1-2 1-3  2-3   (plus intra-quad double links)
    quad 1: 4-5 4-6 4-7  5-6 5-7  6-7
    cross : 0-4  1-5  2-6  3-7

GPU *i* therefore reaches its own quad and its cube partner in one hop, and
the remaining three GPUs of the other quad in two hops.  With GPU 0 as the
barrier leader: sets {0..k} for k<=4 are all 1-hop; adding GPU 5, 6 or 7
introduces 2-hop members — exactly where the paper's latency jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = [
    "Interconnect",
    "build_dgx1_nvlink",
    "build_nvswitch",
    "build_ring",
    "build_pcie",
    "build_interconnect",
    "DGX1_NVLINK_LINKS",
    "INTERCONNECT_KINDS",
]

# Hybrid cube-mesh of the V100 DGX-1, one entry per connected GPU pair
# (the doubled links inside a quad affect bandwidth, not barrier hop
# count, so they are not listed twice).
DGX1_NVLINK_LINKS: Tuple[Tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 2), (1, 3), (1, 5),
    (2, 3), (2, 6),
    (3, 7),
    (4, 5), (4, 6), (4, 7),
    (5, 6), (5, 7),
    (6, 7),
)


@dataclass(frozen=True)
class LinkSpec:
    """Per-link characteristics used by the peer-transfer model."""

    latency_ns: float
    bandwidth_gbps: float


def _bfs(adj: Dict[int, Set[int]], src: int) -> Dict[int, int]:
    """Hop count from ``src`` to every GPU reachable from it."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


class Interconnect:
    """A network of GPUs ``0..gpu_count-1`` with hop and bandwidth queries."""

    def __init__(
        self, name: str, gpu_count: int, pairs: Iterable[Tuple[int, int]],
        link: LinkSpec,
    ):
        if gpu_count < 1:
            raise ValueError("interconnect must have at least one GPU")
        self.name = name
        self.link = link
        self._adj: Dict[int, Set[int]] = {g: set() for g in range(gpu_count)}
        for a, b in pairs:
            self._adj[a].add(b)
            self._adj[b].add(a)
        self._hops = {g: _bfs(self._adj, g) for g in self._adj}

    @property
    def gpu_count(self) -> int:
        return len(self._adj)

    def hops(self, src: int, dst: int) -> int:
        """Shortest hop count between two GPUs (0 for src == dst)."""
        try:
            return self._hops[src][dst]
        except KeyError:
            raise ValueError(f"no path {src} -> {dst} in {self.name}") from None

    def max_hops_from(self, leader: int, members: Sequence[int]) -> int:
        """Maximum hop distance from ``leader`` to any member GPU."""
        if leader not in self._adj:
            raise ValueError(f"GPU {leader} not in {self.name}")
        return max((self.hops(leader, m) for m in members), default=0)

    def two_hop_members(self, leader: int, members: Sequence[int]) -> List[int]:
        """Member GPUs at distance >= 2 from the leader."""
        return [m for m in members if self.hops(leader, m) >= 2]

    def neighbors(self, gpu: int) -> List[int]:
        return sorted(self._adj[gpu])

    def peer_transfer_ns(self, src: int, dst: int, nbytes: int) -> float:
        """Time to move ``nbytes`` from ``src`` to ``dst`` (store-and-forward
        per hop for the latency part, bottleneck link bandwidth for the
        payload part)."""
        if src == dst:
            return 0.0
        h = self.hops(src, dst)
        return h * self.link.latency_ns + nbytes / self.link.bandwidth_gbps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interconnect({self.name!r}, gpus={self.gpu_count})"


def build_dgx1_nvlink(gpu_count: int = 8) -> Interconnect:
    """The DGX-1 NVLink hybrid cube-mesh, or its sub-mesh of GPUs ``0..n-1``.

    NVLink 2.0: ~25 GB/s per direction per link.  One-hop latency ~1.3 us
    for a flag round-trip under barrier conditions (folded into the
    cross-GPU calibration; the LinkSpec latency is the raw write latency).
    """
    if gpu_count > 8:
        raise ValueError(f"DGX-1 has 8 GPUs, requested {gpu_count}")
    pairs = [(a, b) for a, b in DGX1_NVLINK_LINKS if max(a, b) < gpu_count]
    return Interconnect(
        "dgx1-nvlink", gpu_count, pairs, LinkSpec(latency_ns=700.0, bandwidth_gbps=25.0)
    )


def build_nvswitch(gpu_count: int = 16) -> Interconnect:
    """DGX-2-style NVSwitch fabric: a non-blocking crossbar.

    Every GPU pair is exactly one switch traversal apart regardless of
    count, so scenario sweeps over an NVSwitch node show *no* two-hop
    plateau — the structural contrast to the DGX-1 cube-mesh.  Modeled as
    a complete graph (the switch ASICs are transparent to hop counting);
    NVLink 2.0 per-link bandwidth, slightly higher latency than a direct
    NVLink hop for the switch traversal.
    """
    if gpu_count < 1:
        raise ValueError("gpu_count must be >= 1")
    if gpu_count > 16:
        raise ValueError(f"NVSwitch backplane tops out at 16 GPUs, requested {gpu_count}")
    return Interconnect(
        "nvswitch", gpu_count, combinations(range(gpu_count), 2),
        LinkSpec(latency_ns=900.0, bandwidth_gbps=25.0),
    )


def build_ring(gpu_count: int = 8) -> Interconnect:
    """Unidirectional-bandwidth ring (NCCL-style allreduce topology).

    Hop counts grow linearly with ring distance (max ``n // 2``), the
    opposite extreme to the NVSwitch crossbar: barrier sweeps over a ring
    show a latency *staircase* instead of the DGX-1's single plateau jump.
    """
    if gpu_count < 1:
        raise ValueError("gpu_count must be >= 1")
    pairs = [(i, (i + 1) % gpu_count) for i in range(gpu_count)] if gpu_count > 1 else []
    return Interconnect(
        "ring", gpu_count, pairs, LinkSpec(latency_ns=700.0, bandwidth_gbps=25.0)
    )


def build_pcie(gpu_count: int = 2) -> Interconnect:
    """PCIe tree: every GPU pair communicates through the host root complex.

    Modeled as a star around a virtual switch — here simply a complete graph
    with uniformly slow links, since every peer path crosses the same
    root complex (the paper's dual-P100 box).
    """
    if gpu_count < 1:
        raise ValueError("gpu_count must be >= 1")
    return Interconnect(
        "pcie", gpu_count, combinations(range(gpu_count), 2),
        LinkSpec(latency_ns=1900.0, bandwidth_gbps=11.0),
    )


# Topology kinds accepted by :func:`build_interconnect` (and therefore by
# ``Scenario.interconnect`` overrides on the experiment CLI).
INTERCONNECT_KINDS = ("nvlink-cube-mesh", "nvswitch", "ring", "pcie")


def build_interconnect(kind: str, gpu_count: int) -> Interconnect:
    """Factory used by :class:`repro.sim.node.Node`."""
    if kind == "nvlink-cube-mesh":
        return build_dgx1_nvlink(gpu_count)
    if kind == "nvswitch":
        return build_nvswitch(gpu_count)
    if kind == "ring":
        return build_ring(gpu_count)
    if kind == "pcie":
        return build_pcie(gpu_count)
    raise ValueError(
        f"unknown interconnect kind {kind!r}; available: {', '.join(INTERCONNECT_KINDS)}"
    )
