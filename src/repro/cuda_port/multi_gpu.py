"""Dual-GPU variant: using both halves of the paper's Tesla S1070.

§IV-C: the test machine carried "two Tesla S10 GPUs, each with 240
streaming cores and 4 GB of device-specific GPU memory" — the paper's
program uses one.  Because the leave-one-out work is independent per
observation (the same SPMD property the paper exploits within one GPU),
the observation rows split cleanly across devices:

* each device holds its own copy of ``x``, ``y`` and the bandwidth grid
  (constant memory) plus the §IV-A intermediates sized to *its share* of
  the rows — so per-device memory halves and the n = 20,000 OOM wall
  moves to n ≈ √2·20,000 ≈ 28,000 with the monolithic allocation, or
  combines with the tiled layout for no wall at all;
* each device folds its share's squared residuals into the k-vector
  of sums carried over from the device before it (a k-sized transfer
  per device — trivial), so the curve's bits do not depend on the
  device count, and the first device runs the final argmin reduction.

The program is the shared host sequence (:mod:`repro.cuda_port.host`)
with the rows split over ``devices``.

Modelled time: the main-kernel phases halve (perfect row split); the
reductions and overheads do not — Amdahl keeps the end-to-end speedup
just under 2×.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.cuda_port.host import _HostProgram
from repro.cuda_port.timing_model import estimate_program_runtime
from repro.exceptions import ValidationError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.timing import PhaseTime, SimulatedRuntime
from repro.kernels import Kernel

__all__ = ["MultiGpuBandwidthProgram", "estimate_multi_gpu_runtime"]

#: Phases whose work is split evenly across devices (per-row SPMD work).
_SPLITTABLE_PHASES = frozenset({"fill", "sort", "sweep", "combine"})


def estimate_multi_gpu_runtime(
    n: int,
    k: int,
    *,
    n_devices: int = 2,
    device: str | DeviceSpec | None = None,
    poly_power_count: int = 2,
    threads_per_block: int = 512,
) -> SimulatedRuntime:
    """Modelled run time with the rows split over ``n_devices`` GPUs.

    Row-parallel phases divide by the device count; the per-bandwidth
    reductions, argmin, and fixed overheads do not (they run once, after
    a k-sized gather) — the Amdahl term that caps the speedup below the
    device count.
    """
    if n_devices < 1:
        raise ValidationError(f"n_devices must be >= 1, got {n_devices}")
    base = estimate_program_runtime(
        n,
        k,
        device=device,
        poly_power_count=poly_power_count,
        threads_per_block=threads_per_block,
    )
    phases = tuple(
        PhaseTime(
            name=p.name,
            compute_seconds=(
                p.compute_seconds / n_devices
                if p.name in _SPLITTABLE_PHASES
                else p.compute_seconds
            ),
            memory_seconds=(
                p.memory_seconds / n_devices
                if p.name in _SPLITTABLE_PHASES
                else p.memory_seconds
            ),
        )
        for p in base.phases
    )
    # Per-device context/setup overhead plus the k-vector gathers.
    spec = get_device(device)
    overhead = base.overhead_seconds + (n_devices - 1) * (
        spec.launch_overhead_seconds + k * 4 / spec.bytes_per_second
    )
    return SimulatedRuntime(phases=phases, overhead_seconds=overhead)


class MultiGpuBandwidthProgram(_HostProgram):
    """The bandwidth program with observations split across GPUs."""

    _span = "cuda-program-multi-gpu"

    def __init__(
        self,
        *,
        devices: Sequence[str | DeviceSpec] | None = None,
        kernel: str | Kernel = "epanechnikov",
        threads_per_block: int | None = None,
    ):
        if devices is None:
            devices = [None, None]  # the paper machine's two Tesla modules
        if len(devices) == 0:
            raise ValidationError("need at least one device")
        super().__init__([get_device(d) for d in devices], kernel, threads_per_block)

    def _rows(self, n: int) -> int:
        return -(-n // len(self.devices))

    def _mode(self, n: int) -> str:
        return f"fast-multi-gpu-{len(self.devices)}"

    def _simulate(self, n: int, k: int, rows: int, **common: Any) -> SimulatedRuntime:
        return estimate_multi_gpu_runtime(
            n, k, n_devices=len(self.devices), **common
        )
