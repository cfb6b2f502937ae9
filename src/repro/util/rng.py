"""Deterministic random-number plumbing.

Measurement noise (host-clock jitter, GPU clock-read quantization) must be
reproducible so the test suite is stable, yet independent between
experiments so statistics behave honestly.  Every consumer derives its own
:class:`numpy.random.Generator` from a root seed plus a string tag.

numpy is imported when the first generator is built, not with this
module: the synchronization study derives no generator, so it runs
without loading numpy.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

DEFAULT_SEED = 0x5CA1AB1E


def derive_seed(root: int, tag: str) -> int:
    """Derive a stable 63-bit child seed from ``root`` and a string tag."""
    digest = hashlib.sha256(f"{root}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def make_rng(root: int = DEFAULT_SEED, tag: str = "") -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for the given root/tag."""
    import numpy as np

    return np.random.default_rng(derive_seed(root, tag))
