"""CUDA-like error types raised by the simulated runtime."""

from __future__ import annotations

__all__ = [
    "CudaError",
    "InvalidConfiguration",
    "CooperativeLaunchTooLarge",
    "InvalidDevice",
]


class CudaError(RuntimeError):
    """Base class for simulated CUDA runtime errors."""


class InvalidConfiguration(CudaError):
    """Launch configuration violates a hardware limit
    (``cudaErrorInvalidConfiguration``)."""


class CooperativeLaunchTooLarge(CudaError):
    """Cooperative grid exceeds the co-residency limit
    (``cudaErrorCooperativeLaunchTooLarge``).

    Real CUDA refuses cooperative launches whose grid cannot be resident
    all at once — the reason the paper's Figures 5/7/8 heat-maps have blank
    cells wherever blocks/SM x threads/block exceeds 2048 threads.
    """


class InvalidDevice(CudaError):
    """Device ordinal out of range (``cudaErrorInvalidDevice``)."""
