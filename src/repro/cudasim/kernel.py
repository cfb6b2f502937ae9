"""Host-observable kernel abstraction.

At the runtime level a kernel is characterized by what the host can see:
its execution duration and its memory effects.  (Intra-kernel behaviour —
barriers, shared memory, timers — is simulated by the executors in
:mod:`repro.sim`; the reduction case study composes those results into the
durations used here.)

``duration_ns(device, config)`` returns the kernel's *execution latency*,
excluding all launch machinery — the paper's "Kernel Execution Latency"
term (Section IV).  ``on_complete`` runs the functional body when the
kernel retires, so data effects land at the simulated completion time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cudasim.errors import InvalidConfiguration
from repro.sim.arch import GPUSpec
from repro.sim.device import Device

__all__ = ["LaunchConfig", "Kernel", "NullKernel", "SleepKernel", "WorkKernel"]


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry of one launch."""

    grid_blocks: int
    threads_per_block: int
    shared_mem_per_block: int = 0

    def __post_init__(self):
        if self.grid_blocks < 1:
            raise InvalidConfiguration("grid must have at least one block")
        if self.threads_per_block < 1:
            raise InvalidConfiguration("block must have at least one thread")
        if self.shared_mem_per_block < 0:
            raise InvalidConfiguration("negative shared memory request")

    def validate(self, spec: GPUSpec) -> None:
        """Raise if the block shape violates ``spec``'s hard limits."""
        if self.threads_per_block > spec.max_threads_per_block:
            raise InvalidConfiguration(
                f"{self.threads_per_block} threads/block exceeds "
                f"{spec.name} limit {spec.max_threads_per_block}"
            )
        if self.shared_mem_per_block > spec.shared_mem_per_block:
            raise InvalidConfiguration(
                f"{self.shared_mem_per_block} B shared/block exceeds "
                f"{spec.name} limit {spec.shared_mem_per_block}"
            )

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block

    @property
    def warps_per_block(self) -> int:
        return math.ceil(self.threads_per_block / 32)


class Kernel:
    """Base kernel: subclass or pass ``duration_fn`` / ``body``.

    Parameters
    ----------
    name:
        Shown in traces and error messages.
    duration_fn:
        ``(device, config) -> ns`` execution latency model.
    body:
        ``(device, config) -> None`` functional effect applied at
        completion time.
    """

    def __init__(
        self,
        name: str = "kernel",
        duration_fn: Optional[Callable[[Device, LaunchConfig], float]] = None,
        body: Optional[Callable[[Device, LaunchConfig], None]] = None,
    ):
        self.name = name
        self._duration_fn = duration_fn
        self._body = body

    def duration_ns(self, device: Device, config: LaunchConfig) -> float:
        """Execution latency on ``device`` (excluding launch overheads)."""
        if self._duration_fn is None:
            raise NotImplementedError(
                f"kernel {self.name!r} has no duration model"
            )
        d = self._duration_fn(device, config)
        if not 0 <= d < math.inf:
            raise InvalidConfiguration(
                f"kernel {self.name!r} duration must be finite and >= 0, got {d!r}"
            )
        return d

    def on_complete(self, device: Device, config: LaunchConfig) -> None:
        """Apply the kernel's memory effects (runs at completion time)."""
        if self._body is not None:
            self._body(device, config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r})"


class NullKernel(Kernel):
    """An empty kernel: execution latency is the bare pipeline cost.

    This is the kernel behind Table I's "Null Kernel ... Kernel Total
    Latency" column; its execution component is the launch-type's
    ``exec_null_ns`` calibration.
    """

    def __init__(self, launch_type: str = "traditional"):
        super().__init__(name=f"null[{launch_type}]")
        self.launch_type = launch_type

    def duration_ns(self, device: Device, config: LaunchConfig) -> float:
        return device.spec.launch_calib(self.launch_type).exec_null_ns


class SleepKernel(Kernel):
    """``repeat_n(nanosleep(unit))`` — the paper's Fig 3 probe kernel.

    Requires the Volta ``nanosleep`` instruction; constructing a duration
    for a Pascal device raises, mirroring the paper's V100-only use of the
    fusion method (Section IX-B).
    """

    def __init__(self, units: int = 10, unit_ns: float = 1000.0,
                 launch_type: str = "traditional"):
        if not 0 <= units < math.inf:
            raise InvalidConfiguration(
                f"SleepKernel units must be finite and >= 0, got {units!r}"
            )
        if not 0 <= unit_ns < math.inf:
            raise InvalidConfiguration(
                f"SleepKernel unit_ns must be finite and >= 0, got {unit_ns!r}"
            )
        super().__init__(name=f"sleep[{units}x{unit_ns:.0f}ns]")
        self.units = units
        self.unit_ns = unit_ns
        self.launch_type = launch_type

    def duration_ns(self, device: Device, config: LaunchConfig) -> float:
        if not device.spec.has_nanosleep:
            from repro.sim.exec_thread import UnsupportedInstruction

            raise UnsupportedInstruction(
                f"nanosleep unavailable on {device.spec.name} "
                "(Volta-only; Section IX-B restricts the fusion method to V100)"
            )
        base = device.spec.launch_calib(self.launch_type).exec_null_ns
        return base + self.units * self.unit_ns


class WorkKernel(Kernel):
    """Kernel with a fixed, precomputed execution latency."""

    def __init__(self, duration_ns: float, name: str = "work",
                 body: Optional[Callable[[Device, LaunchConfig], None]] = None):
        if not 0 <= duration_ns < math.inf:
            raise InvalidConfiguration(
                f"WorkKernel duration_ns must be finite and >= 0, got {duration_ns!r}"
            )
        super().__init__(name=name, body=body)
        self._fixed_ns = float(duration_ns)

    def duration_ns(self, device: Device, config: LaunchConfig) -> float:
        return self._fixed_ns
