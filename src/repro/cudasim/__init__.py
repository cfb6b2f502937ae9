"""CUDA-like runtime substrate: kernels, streams, launch functions.

Every name below is imported from its defining module on first access
(:func:`repro.lazy_getattr`), so importing one submodule, as the SIMT
executor imports :mod:`~repro.cudasim.instructions`, loads none of its
siblings.  Code under ``src`` imports from the defining module.
"""

from repro import lazy_getattr

# Public name -> the module it is imported from on first access.
_EXPORTS = {
    "CudaError": "repro.cudasim.errors",
    "InvalidConfiguration": "repro.cudasim.errors",
    "CooperativeLaunchTooLarge": "repro.cudasim.errors",
    "InvalidDevice": "repro.cudasim.errors",
    "Kernel": "repro.cudasim.kernel",
    "LaunchConfig": "repro.cudasim.kernel",
    "NullKernel": "repro.cudasim.kernel",
    "SleepKernel": "repro.cudasim.kernel",
    "WorkKernel": "repro.cudasim.kernel",
    "CudaRuntime": "repro.cudasim.runtime",
    "Stream": "repro.cudasim.stream",
    "LaunchRecord": "repro.cudasim.stream",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
