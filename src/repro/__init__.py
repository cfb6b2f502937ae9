"""repro — reproduction of "A Study of Single and Multi-device
Synchronization Methods in Nvidia GPUs" (Zhang et al., 2020).

The package is layered bottom-up:

* :mod:`repro.sim`       — discrete-event GPU simulator (engine, SMs,
  devices, NVLink/PCIe nodes) calibrated to the paper's P100/V100/DGX-1.
* :mod:`repro.cudasim`   — CUDA-like runtime: kernels, streams, the three
  launch functions, device synchronization.
* :mod:`repro.core`      — the paper's contribution: cooperative-groups
  hierarchy, sync characterization, the Little's-law performance model,
  pitfall analyses.
* :mod:`repro.microbench`— the paper's measurement methodologies (kernel
  fusion, Wong chains, the CPU-clock inter-SM method with its error model).
* :mod:`repro.reduction` — the reduction-operator case study.
* :mod:`repro.host`      — OpenMP-style host thread teams.
* :mod:`repro.experiments` — drivers regenerating every table and figure.

Quickstart::

    from repro import V100, KernelEnv, this_grid

    env = KernelEnv.cooperative(V100, blocks_per_sm=2, threads_per_block=256)
    print(this_grid(env).latency_model() / 1e3, "us per grid.sync()")

The names below are imported on first access (PEP 562), so ``import
repro`` — which every ``repro.*`` import runs first — loads no simulator.
:func:`lazy_getattr` builds that ``__getattr__`` here and for the
subpackages ``repro.core``, ``repro.cudasim``, ``repro.microbench`` and
``repro.sanitize``, whose submodules likewise load only when one of
their names is read.
"""

from importlib import import_module
from typing import Any, Callable, Mapping

__version__ = "1.0.0"

# Public name -> the module it is imported from on first access.
_EXPORTS = {
    "V100": "repro.sim.arch",
    "P100": "repro.sim.arch",
    "DGX1_V100": "repro.sim.arch",
    "P100_PCIE_NODE": "repro.sim.arch",
    "Node": "repro.sim.node",
    "CudaRuntime": "repro.cudasim.runtime",
    "LaunchConfig": "repro.cudasim.kernel",
    "NullKernel": "repro.cudasim.kernel",
    "SleepKernel": "repro.cudasim.kernel",
    "WorkKernel": "repro.cudasim.kernel",
    "KernelEnv": "repro.core.groups",
    "tiled_partition": "repro.core.groups",
    "coalesced_threads": "repro.core.groups",
    "this_thread_block": "repro.core.groups",
    "this_grid": "repro.core.groups",
    "this_multi_grid": "repro.core.groups",
}

__all__ = [*_EXPORTS, "__version__"]


def lazy_getattr(package: str, exports: Mapping[str, str]) -> Callable[[str], Any]:
    """A package's PEP 562 ``__getattr__``: each name in ``exports``
    resolves to the attribute of the module it maps to, imported on
    access.

    Nothing is cached in the package, so every read sees the defining
    module's current binding; a name that is not exported (a submodule
    not yet imported included) raises ``AttributeError``, which also
    lets ``from package import submodule`` fall through to the import
    system.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(import_module(module), name)

    return __getattr__


__getattr__ = lazy_getattr(__name__, _EXPORTS)
