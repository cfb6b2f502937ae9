"""CUDA-like runtime substrate: kernels, streams, launch functions."""

from repro.cudasim.errors import (
    CooperativeLaunchTooLarge,
    CudaError,
    InvalidConfiguration,
    InvalidDevice,
)
from repro.cudasim.kernel import Kernel, LaunchConfig, NullKernel, SleepKernel, WorkKernel
from repro.cudasim.runtime import CudaRuntime
from repro.cudasim.stream import LaunchRecord, Stream

__all__ = [
    "CudaError",
    "InvalidConfiguration",
    "CooperativeLaunchTooLarge",
    "InvalidDevice",
    "Kernel",
    "LaunchConfig",
    "NullKernel",
    "SleepKernel",
    "WorkKernel",
    "CudaRuntime",
    "Stream",
    "LaunchRecord",
]
