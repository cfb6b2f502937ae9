"""Micro-benchmark methodology (Section IX of the paper).

Every name below is imported from its defining module on first access
(:func:`repro.lazy_getattr`), so importing one submodule, as
:mod:`repro.core.perfmodel` imports :mod:`~repro.microbench.intra_sm`,
loads none of its siblings.  Code under ``src`` imports from the
defining module.
"""

from repro import lazy_getattr

# Public name -> the module it is imported from on first access.
_EXPORTS = {
    "Measurement": "repro.microbench.harness",
    "MeasurementConfig": "repro.microbench.harness",
    "collect": "repro.microbench.harness",
    "LaunchOverheadResult": "repro.microbench.implicit",
    "measure_launch_overhead": "repro.microbench.implicit",
    "measure_kernel_total_latency": "repro.microbench.implicit",
    "cpu_side_barrier_overhead": "repro.microbench.implicit",
    "measure_instruction_latency_wong": "repro.microbench.intra_sm",
    "measure_shared_bandwidth": "repro.microbench.intra_sm",
    "SharedBandwidthResult": "repro.microbench.intra_sm",
    "measure_instruction_latency_inter_sm": "repro.microbench.inter_sm",
    "measure_kernel_total_latency_host": "repro.microbench.inter_sm",
    "verify_sync_repeat_invariance": "repro.microbench.inter_sm",
    "DerivedLatency": "repro.microbench.stats",
    "derive_instruction_latency": "repro.microbench.stats",
    "propagated_sigma": "repro.microbench.stats",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
