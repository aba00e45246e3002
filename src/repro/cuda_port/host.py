"""Host sequence of the CUDA bandwidth program (the paper's program 4).

Every simulated program runs, in order, exactly the host-side sequence
of §IV-A/B:

1. validate inputs, cast to float32 (single precision per §IV-A);
2. upload the bandwidth grid to **constant memory** (which enforces the
   8 KB / 2,048-value cap);
3. ``cudaMalloc`` every intermediate: x, y, the two rows×n matrices, the
   2·P rows×k window-sum matrices, the k×rows squared-residual matrix and
   the k-vector of CV scores — the capacity check here is what stops the
   monolithic program above n = 20,000 on the 4 GB Tesla;
4. launch the main kernel over ⌈rows/T⌉ blocks of T = 512 threads;
5. launch k sum reductions (one per bandwidth) and one argmin reduction,
   checked against the host's argmin;
6. copy the optimum back and free the device memory.

:class:`CudaBandwidthProgram` holds all n rows on one device; the tiled
(:mod:`repro.cuda_port.tiled`) and multi-GPU
(:mod:`repro.cuda_port.multi_gpu`) programs run the same sequence with
fewer rows per device.  Tiles and devices change the accounting — the
allocations, the launch count, the modelled time — never the arithmetic.

Two execution modes share this driver:

* ``"functional"`` — every device kernel actually runs on the simulator,
  thread by thread.  Exact but interpreter-bound: O(n²·log n) python
  work, intended for n up to a few hundred (tests, demos).
* ``"fast"`` — the *device executor* shortcut: allocation, constant
  memory, limits and the argmin reduction behave identically, but the
  main kernel's arithmetic is carried out by the vectorised float32
  equivalent of the same summations, and the big intermediates are
  account-only reservations.  Every row is folded into one accumulator
  in row order, carried across tiles and devices, so a curve's bits do
  not depend on the tile size or the device count.  Numerically agrees
  with functional mode to float32 round-off; used for large n.
* ``"auto"`` (default) — functional up to :attr:`functional_limit`
  observations, fast beyond.

Either way the result carries the analytically modelled GPU run time
(:mod:`repro.cuda_port.timing_model`) next to the measured wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.fastgrid import (
    fastgrid_row_contributions,
    plan_fastgrid_blocks,
    require_fast_grid_kernel,
)
from repro.cuda_port.main_kernel import bandwidth_main_kernel
from repro.cuda_port.timing_model import estimate_program_runtime
from repro.exceptions import ValidationError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.kernel import LaunchStats, launch_kernel
from repro.gpusim.memory import ConstantMemory, GlobalMemory
from repro.gpusim.reduction import device_argmin, device_sum
from repro.gpusim.timing import SimulatedRuntime
from repro.kernels import Kernel
from repro.obs.tracer import current_tracer
from repro.parallel import balanced_blocks
from repro.utils.numeric import fold_rows
from repro.utils.validation import check_paired_samples, ensure_bandwidths

__all__ = ["CudaBandwidthProgram", "CudaProgramResult"]


@dataclass(frozen=True)
class CudaProgramResult:
    """Output of one program run."""

    bandwidth: float
    score: float
    scores: np.ndarray
    mode: str
    device: str
    wall_seconds: float
    simulated: SimulatedRuntime
    memory_report: dict[str, Any]
    launch_stats: tuple[LaunchStats, ...] = ()

    @property
    def simulated_seconds(self) -> float:
        """Modelled GPU run time (the Table I/II quantity)."""
        return self.simulated.total_seconds


class _HostProgram:
    """The one host sequence; a program supplies only where rows live.

    Each program gives its device list (``devices``), the rows one device
    holds (:meth:`_rows`), its mode label (:meth:`_mode`) and its timing
    model (:meth:`_simulate`).  The rows split evenly over the devices and
    each device launches over its share in tiles of :meth:`_rows` rows.
    """

    _span = "cuda-program"

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        kernel: str | Kernel,
        threads_per_block: int | None,
    ):
        self.devices = list(devices)
        self.kernel = require_fast_grid_kernel(kernel)
        T = threads_per_block or self.devices[0].max_threads_per_block
        if T & (T - 1):
            raise ValidationError(f"threads_per_block must be a power of two, got {T}")
        self.threads_per_block = T

    def _rows(self, n: int) -> int:
        return n

    def _mode(self, n: int) -> str:
        raise NotImplementedError

    def _simulate(self, n: int, k: int, rows: int, **common: Any) -> SimulatedRuntime:
        raise NotImplementedError

    def run(
        self, x: np.ndarray, y: np.ndarray, bandwidths: np.ndarray
    ) -> CudaProgramResult:
        """Execute the program; returns scores, optimum, and timings."""
        x64, y64 = check_paired_samples(x, y)
        grid = ensure_bandwidths(bandwidths)
        n = x64.shape[0]
        k = grid.shape[0]
        rows = self._rows(n)
        mode = self._mode(n)
        # The program's one float32 cast (§IV-A single precision).
        x32, y32, bw32 = (a.astype(np.float32) for a in (x64, y64, grid))
        shares = balanced_blocks(n, len(self.devices))
        total = np.zeros(k, dtype=np.float64)  # the one carried row fold
        stats: list[LaunchStats] = []
        reports: list[dict[str, Any]] = []
        name = "+".join(s.name for s in self.devices)

        tracer = current_tracer()
        start = time.perf_counter()  # repro-lint: disable=GPU001 - host wall clock
        with tracer.span(self._span, mode=mode, device=name, n=n, k=k, rows=rows):
            for spec, (lo, hi) in zip(self.devices, shares):
                scores32 = self._on_device(
                    spec, x32, y32, bw32, lo, hi, min(rows, hi - lo), mode,
                    total, stats, reports,
                )
            # Final argmin reduction (k <= 2,048, so always executed on the
            # simulator, on the first device).
            with tracer.span("device-argmin", k=k):
                _, best_h, argmin_stats = device_argmin(
                    scores32, bw32, device=self.devices[0],
                    block_dim=self.threads_per_block,
                )
            stats.append(argmin_stats)

        wall = time.perf_counter() - start  # repro-lint: disable=GPU001 - host wall clock
        scores = scores32.astype(np.float64) / n  # CV_lc normalisation
        best_j = int(np.argmin(scores))
        # float32 argmin from the device should agree with the host argmin;
        # prefer the exact grid value for downstream float64 use.
        best_bandwidth = float(grid[best_j])
        if not np.isclose(best_bandwidth, best_h, rtol=1e-5, atol=1e-7):
            # Tolerate exact ties in float32; otherwise surface the bug.
            tied = np.isclose(scores32, scores32.min(), rtol=0.0, atol=0.0)
            if not tied.sum() > 1:
                raise ValidationError(
                    f"device argmin {best_h} disagrees with host argmin "
                    f"{best_bandwidth}"
                )
        return CudaProgramResult(
            bandwidth=best_bandwidth,
            score=float(scores[best_j]),
            scores=scores,
            mode=mode,
            device=name,
            wall_seconds=wall,
            simulated=self._simulate(
                n, k, rows, device=self.devices[0],
                poly_power_count=len(self.kernel.poly_terms),
                threads_per_block=self.threads_per_block,
            ),
            memory_report={
                # The fullest device's snapshot, taken before its free.
                **max(reports, key=lambda r: r["peak_gb"]),
                "devices": [r["device"] for r in reports],
                "per_device_peak_gb": [r["peak_gb"] for r in reports],
                "row_split": shares,
                "tiles": sum(-(-(hi - lo) // rows) for lo, hi in shares),
                "tile_rows": rows,
            },
            launch_stats=tuple(stats),
        )

    def _on_device(
        self,
        spec: DeviceSpec,
        x32: np.ndarray,
        y32: np.ndarray,
        bw32: np.ndarray,
        lo: int,
        hi: int,
        rows: int,
        mode: str,
        total: np.ndarray,
        stats: list[LaunchStats],
        reports: list[dict[str, Any]],
    ) -> np.ndarray:
        """Upload, allocate and launch over rows ``[lo, hi)`` on one device.

        Returns the device's k-vector of scores: in fast mode, the carried
        fold ``total`` once this device's rows are in it.
        """
        n, k, T = x32.shape[0], bw32.shape[0], self.threads_per_block
        terms = self.kernel.poly_terms
        tracer = current_tracer()
        constant = ConstantMemory(spec)
        constant.store(bw32)  # enforces the 2,048-bandwidth cap
        gmem = GlobalMemory(spec)
        try:
            with tracer.span("upload", n=n, k=k):
                d_x = gmem.malloc(n, np.float32, label="x")
                d_y = gmem.malloc(n, np.float32, label="y")
                d_scores = gmem.malloc(k, np.float32, label="cv-scores")
                d_x.copy_from_host(x32)
                d_y.copy_from_host(y32)
            # §IV-A allocations for the rows this device holds; account-only
            # in fast mode, with the same capacity/OOM behaviour.
            functional = mode == "functional"
            alloc = gmem.malloc if functional else gmem.reserve
            absdiff = alloc((rows, n), np.float32, label="absdiff-matrix")
            ymat = alloc((rows, n), np.float32, label="y-matrix")
            sums = [
                alloc((rows, k), np.float32, label=f"sum-{s}^p[{t}]").array
                for s in ("d", "yd")
                for t in range(len(terms))
            ]
            sqresid = alloc((k, rows), np.float32, label="sq-residuals")
            with tracer.span("main-kernel", mode=mode, rows=hi - lo):
                if functional:  # one launch over all n rows
                    args = (
                        d_x.array, d_y.array, absdiff.array, ymat.array,
                        tuple(sums[: len(terms)]), tuple(sums[len(terms) :]),
                        sqresid.array, constant.read(),
                        tuple(t.power for t in terms),
                        tuple(t.coefficient for t in terms),
                        self.kernel.support_radius,
                    )
                    stats.append(launch_kernel(
                        bandwidth_main_kernel, grid_dim=-(-n // T), block_dim=T,
                        args=args, device=spec,
                    ))
                    # k sum reductions, one per bandwidth (paper §IV-B).
                    for jb in range(k):
                        value, red = device_sum(
                            sqresid.array[jb], device=spec, block_dim=T
                        )
                        d_scores.array[jb] = np.float32(value)
                        stats.append(red)
                else:
                    self._fold_fast(x32, y32, bw32, lo, hi, rows, total)
                    d_scores.copy_from_host(total.astype(np.float32))
            reports.append(gmem.report())
            return d_scores.copy_to_host()
        finally:
            gmem.free_all()

    def _fold_fast(
        self, x32: np.ndarray, y32: np.ndarray, bw32: np.ndarray,
        lo: int, hi: int, rows: int, total: np.ndarray,
    ) -> None:
        """The fast executor: fold rows ``[lo, hi)`` into ``total``.

        One launch per tile of ``rows`` rows, run as the sizing rule's
        sub-chunks on the float32 inputs widened to float64.  Every row
        joins the one strict row-order fold
        (:func:`repro.utils.numeric.fold_rows`), so no tile or sub-chunk
        boundary reaches the bits.
        """
        x, y, grid = (a.astype(np.float64) for a in (x32, y32, bw32))
        name = self.kernel.name
        step = plan_fastgrid_blocks(x.shape[0], grid, name, "float32").block_rows
        for tile in range(lo, hi, rows):
            end = min(tile + rows, hi)
            for a in range(tile, end, step):
                fold_rows(
                    fastgrid_row_contributions(
                        x, y, grid, name, a, min(a + step, end), "float32"
                    ),
                    total,
                )


class CudaBandwidthProgram(_HostProgram):
    """The paper's CUDA optimal-bandwidth program on the GPU simulator."""

    def __init__(
        self,
        *,
        device: str | DeviceSpec | None = None,
        kernel: str | Kernel = "epanechnikov",
        threads_per_block: int | None = None,
        mode: str = "auto",
        functional_limit: int = 256,
    ):
        self.device = get_device(device)
        super().__init__([self.device], kernel, threads_per_block)
        if mode not in ("auto", "functional", "fast"):
            raise ValidationError(f"mode must be auto/functional/fast, got {mode!r}")
        self.mode = mode
        self.functional_limit = int(functional_limit)

    def _mode(self, n: int) -> str:
        if self.mode == "auto":
            return "functional" if n <= self.functional_limit else "fast"
        return self.mode

    def _simulate(self, n: int, k: int, rows: int, **common: Any) -> SimulatedRuntime:
        return estimate_program_runtime(n, k, **common)
