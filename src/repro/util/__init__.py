"""Small shared utilities: units, formatting, deterministic RNG plumbing."""

from repro.util.rng import derive_seed, make_rng
from repro.util.units import GB, KB, MB, cycles_to_ns, ns_to_cycles

__all__ = [
    "KB",
    "MB",
    "GB",
    "cycles_to_ns",
    "ns_to_cycles",
    "make_rng",
    "derive_seed",
]
