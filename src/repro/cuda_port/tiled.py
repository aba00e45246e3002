"""Tiled variant of the CUDA program — the paper's stated future work.

§IV-A / §V: "Future work will address this issue by eliminating the
reliance on storing n-by-n matrices in the GPU's device memory" and
"swapping matrices out to the host memory or to disk as necessary".

This module implements that: instead of two n×n matrices, the device
holds two *t×n* tile buffers (``t = tile_rows``) and the host loops over
⌈n/t⌉ tiles, launching the main kernel once per tile.  Each launch
processes observations ``[tile_start, tile_start + t)`` — their fill,
sort, sweep and recombination are unchanged — and accumulates the
per-bandwidth squared-residual sums.  The n×k window-sum matrices also
shrink to t×k, so device memory becomes O(t·n) and the OOM wall moves
from n ≈ 20,000 out to wherever ``2·t·n`` floats stop fitting — far
beyond any practical sample on the same 4 GB Tesla.

The cost: ⌈n/t⌉ kernel launches and re-reading ``x``/``y`` per tile —
asymptotically nothing (the per-thread sort already dominates), which is
why the paper expected this fix to be cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.kernels import Kernel
from repro.core.fastgrid import fastgrid_block_sums, require_fast_grid_kernel
from repro.cuda_port.host import CudaProgramResult
from repro.obs.tracer import current_tracer
from repro.cuda_port.timing_model import estimate_program_runtime
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.kernel import LaunchStats
from repro.gpusim.memory import ConstantMemory, GlobalMemory
from repro.gpusim.reduction import device_argmin
from repro.gpusim.timing import SimulatedRuntime, TimingModel
from repro.utils.validation import check_paired_samples, ensure_bandwidths

__all__ = ["TiledCudaBandwidthProgram", "estimate_tiled_runtime", "default_tile_rows"]


def default_tile_rows(n: int, device: str | DeviceSpec | None = None) -> int:
    """Largest tile that keeps the §IV-A buffers within half the device.

    Half, not all: leaves headroom for x, y, the t×k sums, the k×n...
    — all the small allocations — plus the paper's own observation that
    fragmentation bites well before the nominal capacity.  Clamped to
    ``[1, n]``.
    """
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    spec = get_device(device)
    budget = spec.global_memory_bytes // 2
    per_row = 2 * n * 4  # the two float32 tile buffers
    return int(max(min(budget // per_row, n), 1))


def estimate_tiled_runtime(
    n: int,
    k: int,
    *,
    tile_rows: int | None = None,
    device: str | DeviceSpec | None = None,
    poly_power_count: int = 2,
    threads_per_block: int = 512,
) -> SimulatedRuntime:
    """Modelled run time of the tiled program.

    Identical work terms to the monolithic model — the tiling changes
    *where* intermediate rows live, not how many operations touch them —
    plus one launch overhead per tile and the repeated x/y streaming.
    """
    spec = get_device(device)
    t = tile_rows or default_tile_rows(n, spec)
    base = estimate_program_runtime(
        n,
        k,
        device=spec,
        poly_power_count=poly_power_count,
        threads_per_block=threads_per_block,
    )
    tiles = -(-n // t)
    tm = TimingModel(spec)
    extra_overhead = tm.launch_overhead(tiles) + tm.memory_seconds_coalesced(
        tiles * 2 * n * 4  # x and y re-read per tile
    )
    return SimulatedRuntime(
        phases=base.phases,
        overhead_seconds=base.overhead_seconds + extra_overhead,
    )


@dataclass(frozen=True)
class TileReport:
    """Per-tile execution record."""

    tile_index: int
    start: int
    stop: int
    peak_gb: float


class TiledCudaBandwidthProgram:
    """The out-of-core (tiled) bandwidth program.

    Same inputs and outputs as
    :class:`repro.cuda_port.host.CudaBandwidthProgram`, without the n×n
    allocations — and therefore without the n = 20,000 ceiling.  Runs in
    the fast device-executor mode (the functional thread-by-thread mode
    exists on the monolithic program; the tiled variant targets exactly
    the sizes where functional execution is off the table).
    """

    def __init__(
        self,
        *,
        device: str | DeviceSpec | None = None,
        kernel: str | Kernel = "epanechnikov",
        threads_per_block: int | None = None,
        tile_rows: int | None = None,
    ):
        self.device = get_device(device)
        self.kernel = require_fast_grid_kernel(kernel)
        self.threads_per_block = threads_per_block or self.device.max_threads_per_block
        if tile_rows is not None and tile_rows <= 0:
            raise ValidationError(f"tile_rows must be positive, got {tile_rows}")
        self.tile_rows = tile_rows

    def run(
        self, x: np.ndarray, y: np.ndarray, bandwidths: np.ndarray
    ) -> CudaProgramResult:
        """Execute the tiled program; returns the standard program result."""
        x64, y64 = check_paired_samples(x, y)
        grid = ensure_bandwidths(bandwidths)
        n = x64.shape[0]
        k = grid.shape[0]
        t = self.tile_rows or default_tile_rows(n, self.device)
        x32 = x64.astype(np.float32)
        y32 = y64.astype(np.float32)
        P = len(self.kernel.poly_terms)

        tracer = current_tracer()
        start = time.perf_counter()  # repro-lint: disable=GPU001 - host wall clock
        with tracer.span(
            "cuda-program-tiled", device=self.device.name, n=n, k=k, tile_rows=t
        ):
            constant = ConstantMemory(self.device)
            constant.store(grid.astype(np.float32))

            gmem = GlobalMemory(self.device)
            stats: list[LaunchStats] = []
            try:
                with tracer.span("upload", n=n, k=k):
                    d_x = gmem.malloc(n, np.float32, label="x")
                    d_y = gmem.malloc(n, np.float32, label="y")
                    d_scores = gmem.malloc(k, np.float32, label="cv-scores")
                    d_x.copy_from_host(x32)
                    d_y.copy_from_host(y32)

                    # Persistent tile buffers — THE difference from §IV-A:
                    # t×n instead of n×n (account-only; executor streams).
                    gmem.reserve((t, n), np.float32, label="absdiff-tile")
                    gmem.reserve((t, n), np.float32, label="y-tile")
                    for p in range(P):
                        gmem.reserve((t, k), np.float32, label=f"sum-d^p[{p}]")
                        gmem.reserve(
                            (t, k), np.float32, label=f"sum-yd^p[{p}]"
                        )
                    gmem.reserve((k, t), np.float32, label="sq-residuals-tile")

                grid64 = constant.read().astype(np.float64)
                x_as64 = x32.astype(np.float64)
                y_as64 = y32.astype(np.float64)
                sums = np.zeros(k, dtype=np.float64)
                tile_index = 0
                with tracer.span("main-kernel", tiles=-(-n // t)):
                    for lo in range(0, n, t):
                        hi = min(lo + t, n)
                        sums += fastgrid_block_sums(
                            x_as64, y_as64, grid64, self.kernel.name, lo, hi,
                            "float32",
                        )
                        tile_index += 1
                d_scores.copy_from_host(sums.astype(np.float32))

                scores32 = d_scores.copy_to_host()
                with tracer.span("device-argmin", k=k):
                    _, _, argmin_stats = device_argmin(
                        scores32,
                        constant.read(),
                        device=self.device,
                        block_dim=self.threads_per_block,
                    )
                stats.append(argmin_stats)
                memory_report = gmem.report()
                memory_report["tiles"] = tile_index
                memory_report["tile_rows"] = t
            finally:
                gmem.free_all()

        wall = time.perf_counter() - start  # repro-lint: disable=GPU001 - host wall clock
        scores = scores32.astype(np.float64) / n
        best_j = int(np.argmin(scores))
        return CudaProgramResult(
            bandwidth=float(grid[best_j]),
            score=float(scores[best_j]),
            scores=scores,
            mode="fast-tiled",
            device=self.device.name,
            wall_seconds=wall,
            simulated=estimate_tiled_runtime(
                n,
                k,
                tile_rows=t,
                device=self.device,
                poly_power_count=P,
                threads_per_block=self.threads_per_block,
            ),
            memory_report=memory_report,
            launch_stats=tuple(stats),
        )
