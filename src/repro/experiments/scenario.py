"""Declarative experiment scenarios.

A :class:`Scenario` is the *data* an experiment driver runs against: which
GPU architectures to measure, which multi-GPU node (and optionally how many
GPUs / which interconnect topology), which GPU-count sweep points, and any
workload knobs.  Drivers take a scenario instead of hard-coding
P100/V100/DGX-1, which is what lets the registry sweep arbitrary
(architecture x GPU count x topology) grids and lets the runner cache and
parallelize individual (experiment, scenario) points.

Scenarios are frozen, hashable, and **content-addressed**: two scenarios
with equal knob values have equal :attr:`Scenario.content_hash`, which the
result cache uses as part of its key.  ``to_dict``/``from_dict`` round-trip
through JSON-native types only, so the hash is stable across processes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.arch import (
    GPU_REGISTRY,
    GPUSpec,
    NodeSpec,
    get_gpu_spec,
    get_node_spec,
)
from repro.sim.interconnect import INTERCONNECT_KINDS, build_interconnect

if TYPE_CHECKING:
    from repro.sim.node import Node

__all__ = [
    "Scenario",
    "PAPER_SCENARIO",
    "TABLE1_SCENARIO",
    "FIG7_SCENARIO",
    "SYNC_METHODS_SCENARIOS",
    "canonicalize_extra_value",
    "parse_override",
    "apply_overrides",
    "valid_override_keys",
]


def canonicalize_extra_value(value: Any) -> str:
    """Canonical string form of one ``extras`` value.

    Numeric spellings round-trip through ``int``/``float`` before hashing
    so equivalent values share one content hash (and therefore one cache
    entry): ``extra.n=10`` and ``extra.n=010`` are the same scenario, as
    are ``0.5`` and ``5e-1``.  Non-numeric values pass through as plain
    strings.  Ints and floats stay distinct (``10`` vs ``10.0``) — they
    are different values to a driver that parses the knob as written.
    """
    s = str(value).strip()
    try:
        return str(int(s, 10))
    except ValueError:
        pass
    try:
        f = float(s)
        if math.isfinite(f):
            return repr(f)
    except ValueError:
        pass
    return str(value)


def _canonical_node_name(name: str) -> str:
    """Registry-key spelling of a node name (raises on unknown nodes)."""
    from repro.sim.arch import NODE_REGISTRY

    for key in NODE_REGISTRY:
        if key.lower() == name.lower():
            return key
    get_node_spec(name)  # raises with the standard message
    return name  # pragma: no cover - unreachable


@dataclass(frozen=True)
class Scenario:
    """One point of the (architecture x GPU count x topology x knobs) grid.

    Fields
    ------
    gpus:
        GPU architectures the driver measures (registry names).  Single-GPU
        experiments iterate these; the paper default is ``("V100", "P100")``.
    node:
        Multi-GPU node spec name (``DGX1``, ``DGX2``, ``P100x2``) for the
        cross-GPU experiments.
    gpu_count:
        Override the node's GPU count (e.g. run the DGX-2 spec with 12
        GPUs).  ``None`` keeps the node default.
    interconnect:
        Override the node's topology kind (``nvlink-cube-mesh``,
        ``nvswitch``, ``ring``, ``pcie``).  ``None`` keeps the node default.
    gpu_counts:
        Sweep points for drivers that scan GPU count (Figs 7/8/9/16).
        Empty means "use the driver's paper default".
    size_bytes:
        Payload size for the reduction experiments.  ``None`` = paper size.
    sync_strategy:
        Barrier strategy for the sync drivers (``cooperative``, ``atomic``,
        ``cpu`` — :data:`repro.sync.STRATEGY_KINDS`).  ``None`` keeps each
        scope's default (the cooperative launch), byte-identical to the
        pre-knob pipeline.  Strategy tuning knobs (``poll_ns``,
        ``poll_read_ns``, ``workload_util``, ``atomic_service_ns``) ride
        in ``extras`` and are collected by :meth:`sync_knobs`.
    extras:
        Free-form ``(key, value)`` string pairs for driver-specific knobs;
        kept sorted, with numeric values canonicalized
        (:func:`canonicalize_extra_value`), so equal contents always hash
        equally.
    backend:
        Simulation execution backend for the whole run (``engine`` or
        ``auto`` — :data:`repro.sim.backends.BACKEND_CHOICES`), set as the
        process-wide oracle switch around the driver
        (:func:`repro.sim.engine.use_backend`).  ``None`` runs ``auto``:
        exact shortcuts (analytic barrier ladders, pipe folds and replays,
        host-timeline replays, the warp-reduce memo), bit-identical to the
        engine, wherever they apply.  ``engine`` turns every one of them
        off, so each simulation runs its events (the oracle; see
        ``docs/backends.md``).  Unset, it is left out of the JSON, so
        content hashes and cache keys keep their bytes.
    sanitize:
        Dynamic sync-checker mode for the run (``synccheck``, ``racecheck``,
        ``full`` — :data:`repro.sanitize.SANITIZE_MODES`).  ``None`` (and
        its spelled-out alias ``off``, which normalizes to ``None``) keeps
        the zero-cost uninstrumented path, byte-identical to the
        pre-sanitizer pipeline; see ``docs/sanitize.md``.
    """

    gpus: Tuple[str, ...] = ("V100", "P100")
    node: str = "DGX1"
    gpu_count: Optional[int] = None
    interconnect: Optional[str] = None
    gpu_counts: Tuple[int, ...] = ()
    size_bytes: Optional[int] = None
    sync_strategy: Optional[str] = None
    extras: Tuple[Tuple[str, str], ...] = ()
    backend: Optional[str] = None
    sanitize: Optional[str] = None

    def __post_init__(self) -> None:
        # Normalize sequence fields so list/tuple inputs compare and hash
        # identically, canonicalize registry names so case variants share
        # one content hash (lookups are case-insensitive), and validate
        # every reference up front — a bad scenario should fail at
        # construction, not mid-sweep.
        if not self.gpus:
            raise ValueError("scenario needs at least one GPU architecture")
        for name in self.gpus:
            if name.upper() not in GPU_REGISTRY:
                raise ValueError(
                    f"unknown GPU {name!r}; available: {sorted(GPU_REGISTRY)}"
                )
        object.__setattr__(self, "gpus", tuple(n.upper() for n in self.gpus))
        object.__setattr__(self, "node", _canonical_node_name(self.node))
        object.__setattr__(self, "gpu_counts", tuple(int(n) for n in self.gpu_counts))
        # A repeated entry would run (and average in) the same rows twice
        # and give an equivalent scenario a second cache entry.
        for field_name in ("gpus", "gpu_counts"):
            values = getattr(self, field_name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(
                    f"{field_name} repeat {repeated}: {list(values)}"
                )
        object.__setattr__(
            self,
            "extras",
            tuple(
                sorted(
                    (str(k), canonicalize_extra_value(v)) for k, v in self.extras
                )
            ),
        )
        if self.sync_strategy is not None:
            from repro.sync.strategies import STRATEGY_KINDS

            if self.sync_strategy not in STRATEGY_KINDS:
                raise ValueError(
                    f"unknown sync_strategy {self.sync_strategy!r}; "
                    f"available: {', '.join(STRATEGY_KINDS)}"
                )
        if self.backend is not None:
            from repro.sim.backends import BACKEND_CHOICES

            if self.backend not in BACKEND_CHOICES:
                raise ValueError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {', '.join(BACKEND_CHOICES)}"
                )
        if self.sanitize is not None:
            from repro.sanitize import SANITIZE_MODES

            if self.sanitize == "off":
                # "off" is the CLI spelling of the default; normalizing it
                # to None keeps the canonical form (and hence the content
                # hash) identical to a scenario that never mentioned it.
                object.__setattr__(self, "sanitize", None)
            elif self.sanitize not in SANITIZE_MODES:
                raise ValueError(
                    f"unknown sanitize mode {self.sanitize!r}; "
                    f"available: {', '.join(SANITIZE_MODES)}"
                )
        if self.interconnect is not None and self.interconnect not in INTERCONNECT_KINDS:
            raise ValueError(
                f"unknown interconnect {self.interconnect!r}; "
                f"available: {', '.join(INTERCONNECT_KINDS)}"
            )
        if self.gpu_count is not None and self.gpu_count < 1:
            raise ValueError("gpu_count must be >= 1")
        if any(n < 1 for n in self.gpu_counts):
            raise ValueError("gpu_counts must all be >= 1")
        if self.size_bytes is not None and self.size_bytes < 1:
            raise ValueError("size_bytes must be >= 1")
        # Cross-field check: the (node, interconnect, gpu_count) combination
        # must actually build (e.g. the cube-mesh tops out at 8 GPUs, the
        # NVSwitch backplane at 16) — catching it here turns a poisoned
        # parallel sweep into a single construction-time error.
        spec = self.node_spec()
        try:
            build_interconnect(spec.interconnect, spec.gpu_count)
        except ValueError as exc:
            raise ValueError(
                f"scenario is not buildable ({spec.interconnect} x "
                f"{spec.gpu_count} GPUs on {self.node}): {exc}"
            ) from None
        bad_sweep = [n for n in self.gpu_counts if n > spec.gpu_count]
        if bad_sweep:
            raise ValueError(
                f"gpu_counts {bad_sweep} exceed the node's {spec.gpu_count} GPUs"
            )

    # -- resolution ------------------------------------------------------

    def gpu_specs(self) -> List[GPUSpec]:
        """The GPU architecture specs this scenario measures, in order."""
        return [get_gpu_spec(name) for name in self.gpus]

    def node_spec(self) -> NodeSpec:
        """The node spec with any gpu_count / interconnect overrides applied."""
        spec = get_node_spec(self.node)
        if self.interconnect is not None and self.interconnect != spec.interconnect:
            spec = replace(spec, interconnect=self.interconnect)
        if self.gpu_count is not None and self.gpu_count != spec.gpu_count:
            spec = replace(spec, gpu_count=self.gpu_count)
        return spec

    def build_node(self, gpu_count: Optional[int] = None) -> Node:
        """Instantiate the node (optionally with fewer GPUs than the spec)."""
        from repro.sim.node import Node

        return Node(self.node_spec(), gpu_count=gpu_count)

    def sweep_counts(self, default: Sequence[int]) -> Tuple[int, ...]:
        """GPU-count sweep points: the scenario's, or ``default`` if unset.

        When a ``gpu_count`` override shrinks the node below the driver's
        paper-default sweep, the default is clamped to counts the node can
        host (ending at the node's size), so ``--scenario gpu_count=4``
        sweeps ``(1, 2, 4)`` on Fig 8 instead of crashing at ``n=5``.
        """
        if self.gpu_counts:
            return self.gpu_counts
        cap = self.node_spec().gpu_count
        counts = tuple(n for n in default if n <= cap)
        if max(default) > cap and cap not in counts:
            counts += (cap,)
        return counts

    def extra(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Look up a free-form knob by key."""
        for k, v in self.extras:
            if k == key:
                return v
        return default

    def extra_float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        """A free-form knob parsed as a float (canonical extras always parse)."""
        v = self.extra(key)
        return float(v) if v is not None else default

    def extra_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        """A free-form knob parsed as an int."""
        v = self.extra(key)
        return int(v) if v is not None else default

    def sync_knobs(self) -> Dict[str, float]:
        """Strategy tuning knobs for the sync drivers, parsed from extras.

        Collects the :data:`repro.sync.STRATEGY_KNOB_KEYS` subset of
        ``extras`` as floats — the dict the sync scopes accept as
        ``strategy_knobs`` next to a ``sync_strategy`` kind string.
        """
        from repro.sync.groups import STRATEGY_KNOB_KEYS

        out: Dict[str, float] = {}
        for key in STRATEGY_KNOB_KEYS:
            v = self.extra_float(key)
            if v is not None:
                out[key] = v
        return out

    # -- identity --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native representation (lists, not tuples) — cache/CLI form."""
        data = {
            "gpus": list(self.gpus),
            "node": self.node,
            "gpu_count": self.gpu_count,
            "interconnect": self.interconnect,
            "gpu_counts": list(self.gpu_counts),
            "size_bytes": self.size_bytes,
            "extras": [list(kv) for kv in self.extras],
        }
        # Omitted when unset: a default-strategy scenario's canonical form
        # (hence its content hash, cache key and report provenance) is
        # byte-identical to the pre-sync_strategy pipeline.
        if self.sync_strategy is not None:
            data["sync_strategy"] = self.sync_strategy
        # Same omit-when-unset contract for the execution backend.
        if self.backend is not None:
            data["backend"] = self.backend
        # And for the sanitizer mode ("off" already normalized to None).
        if self.sanitize is not None:
            data["sanitize"] = self.sanitize
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "extras" in kwargs:
            kwargs["extras"] = tuple(tuple(kv) for kv in kwargs["extras"])
        return cls(**kwargs)

    @property
    def content_hash(self) -> str:
        """Stable 16-hex-digit digest of the scenario's canonical form."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        """Short human-readable label (CLI listings, report provenance)."""
        parts = ["+".join(self.gpus)]
        if self.node != "DGX1" or self.gpu_count or self.interconnect:
            parts.append(self.node)
        if self.gpu_count:
            parts.append(f"{self.gpu_count}gpu")
        if self.interconnect:
            parts.append(self.interconnect)
        if self.gpu_counts:
            parts.append("n=" + ",".join(str(n) for n in self.gpu_counts))
        if self.size_bytes:
            parts.append(f"{self.size_bytes}B")
        if self.sync_strategy:
            parts.append(f"sync={self.sync_strategy}")
        if self.backend:
            parts.append(f"backend={self.backend}")
        if self.sanitize:
            parts.append(f"sanitize={self.sanitize}")
        parts.extend(f"{k}={v}" for k, v in self.extras)
        return ":".join(parts)


# The paper's default machine room: measure both GPUs, multi-GPU work on
# the DGX-1, every sweep at its published points.
PAPER_SCENARIO = Scenario()

# Table I is published for the V100 / DGX-1 platform only.
TABLE1_SCENARIO = Scenario(gpus=("V100",))

# Fig 7 runs on the dual-P100 PCIe box, not the default DGX-1.
FIG7_SCENARIO = Scenario(gpus=("P100",), node="P100x2")

# Per-GPU default scenarios of the strategy sweep: the V100 sweep runs on
# the DGX-1 cube-mesh, the P100 sweep on the dual-P100 PCIe box — the two
# machines the paper actually compares methods on.  Topology overrides
# (`--scenario interconnect=nvswitch` / `ring`, `node=DGX2`) re-run the
# same sweep on the other fabrics.
SYNC_METHODS_SCENARIOS = (
    Scenario(gpus=("V100",)),
    Scenario(gpus=("P100",), node="P100x2"),
)


# -- CLI overrides -------------------------------------------------------

_LIST_FIELDS = {"gpus": str, "gpu_counts": int}
_SCALAR_FIELDS = {
    "node": str,
    "gpu_count": int,
    "interconnect": str,
    "size_bytes": int,
    "sync_strategy": str,
    "backend": str,
    "sanitize": str,
}
# Driver-specific knobs must be namespaced so a typo in a real field name
# ("gpu=V100") errors instead of silently riding along as an ignored extra
# (which used to yield the default scenario).
_EXTRA_PREFIX = "extra."


def valid_override_keys() -> Tuple[str, ...]:
    """The scenario keys ``--scenario`` accepts, in help order."""
    return tuple(_LIST_FIELDS) + tuple(_SCALAR_FIELDS)


def parse_override(pair: str) -> Tuple[str, Any]:
    """Parse one ``key=value`` CLI override into a scenario field update.

    List fields take comma-separated values (``gpus=V100,P100``,
    ``gpu_counts=2,4,8``).  Driver-specific knobs use the ``extra.``
    namespace (``extra.knob=7``); any other key is rejected with the
    list of valid keys, so a typo fails loudly instead of silently
    producing the default scenario.
    """
    if "=" not in pair:
        raise ValueError(f"scenario override must be key=value, got {pair!r}")
    key, raw = pair.split("=", 1)
    key = key.strip()
    raw = raw.strip()
    if key in _LIST_FIELDS:
        conv = _LIST_FIELDS[key]
        return key, tuple(conv(item) for item in raw.split(",") if item)
    if key in _SCALAR_FIELDS:
        value = _SCALAR_FIELDS[key](raw)
        return key, value
    if key.startswith(_EXTRA_PREFIX) and len(key) > len(_EXTRA_PREFIX):
        return "extras", (key[len(_EXTRA_PREFIX):], raw)
    raise ValueError(
        f"unknown scenario key {key!r}; valid keys: "
        f"{', '.join(valid_override_keys())} "
        f"(or {_EXTRA_PREFIX}<name>=<value> for driver-specific knobs)"
    )


def apply_overrides(scenario: Scenario, pairs: Sequence[str]) -> Scenario:
    """Apply ``key=value`` overrides to a scenario, returning a new one."""
    updates: Dict[str, Any] = {}
    extras = dict(scenario.extras)
    for pair in pairs:
        key, value = parse_override(pair)
        if key == "extras":
            extras[value[0]] = value[1]
        else:
            updates[key] = value
    if extras != dict(scenario.extras):
        updates["extras"] = tuple(extras.items())
    return replace(scenario, **updates) if updates else scenario
