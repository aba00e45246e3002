"""Tiled variant of the CUDA program — the paper's stated future work.

§IV-A / §V: "Future work will address this issue by eliminating the
reliance on storing n-by-n matrices in the GPU's device memory" and
"swapping matrices out to the host memory or to disk as necessary".

This module implements that on the shared host sequence
(:mod:`repro.cuda_port.host`): instead of two n×n matrices, the device
holds two *t×n* tile buffers (``t = tile_rows``) and the host loops over
⌈n/t⌉ tiles, launching the main kernel once per tile.  Each launch
processes observations ``[tile_start, tile_start + t)`` — their fill,
sort, sweep and recombination are unchanged — and folds their
squared residuals into the one row-order accumulator, so the tile size
never changes a curve's bits.  The n×k window-sum matrices also
shrink to t×k, so device memory becomes O(t·n) and the OOM wall moves
from n ≈ 20,000 out to wherever ``2·t·n`` floats stop fitting — far
beyond any practical sample on the same 4 GB Tesla.

The cost: ⌈n/t⌉ kernel launches and re-reading ``x``/``y`` per tile —
asymptotically nothing (the per-thread sort already dominates), which is
why the paper expected this fix to be cheap.
"""

from __future__ import annotations

from typing import Any

from repro.cuda_port.host import _HostProgram
from repro.cuda_port.timing_model import estimate_program_runtime
from repro.exceptions import ValidationError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.timing import SimulatedRuntime, TimingModel
from repro.kernels import Kernel

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


class TiledCudaBandwidthProgram(_HostProgram):
    """The out-of-core (tiled) bandwidth program.

    Same inputs and outputs as
    :class:`repro.cuda_port.host.CudaBandwidthProgram`, and the same host
    sequence, with ``tile_rows`` rows on the device instead of n — and
    therefore without the n = 20,000 ceiling.  Runs in the fast
    device-executor mode (the functional thread-by-thread mode exists on
    the monolithic program; the tiled variant targets exactly the sizes
    where functional execution is off the table).
    """

    _span = "cuda-program-tiled"

    def __init__(
        self,
        *,
        device: str | DeviceSpec | None = None,
        kernel: str | Kernel = "epanechnikov",
        threads_per_block: int | None = None,
        tile_rows: int | None = None,
    ):
        self.device = get_device(device)
        super().__init__([self.device], kernel, threads_per_block)
        if tile_rows is not None and tile_rows <= 0:
            raise ValidationError(f"tile_rows must be positive, got {tile_rows}")
        self.tile_rows = tile_rows

    def _rows(self, n: int) -> int:
        return self.tile_rows or default_tile_rows(n, self.device)

    def _mode(self, n: int) -> str:
        return "fast-tiled"

    def _simulate(self, n: int, k: int, rows: int, **common: Any) -> SimulatedRuntime:
        return estimate_tiled_runtime(n, k, tile_rows=rows, **common)
