"""Grid-evaluation backends.

A *backend* maps ``(x, y, bandwidth grid, kernel) -> CV scores`` and
corresponds to one of the paper's execution substrates:

===============  ==================================================
``python``       paper-literal per-observation sorted sweep (the
                 sequential reference; the CUDA thread body)
``numpy``        vectorised fast grid search — the "Sequential C"
                 analogue (numpy plays the role of compiled C)
``multicore``    row-parallel fast grid over a process pool
``blocked``      budget-planned out-of-core blockwise sweep
                 (:mod:`repro.core.blockwise`) — O(n·B + n·k) peak
                 memory, bit-identical to ``numpy``
``blocked-shm``  the blockwise sweep fanned over a shared-memory
                 worker pool (zero-copy inputs, O(1) per-block IPC)
``gpusim``       the paper's CUDA program executed on the GPU
                 simulator (registered lazily by
                 :mod:`repro.cuda_port` to avoid an import cycle)
``gpusim-``      the same program over O(t·n) device tiles, past
``tiled``        the 4 GB wall (also from :mod:`repro.cuda_port`)
``distributed``  the blockwise sweep leased out to a worker fleet
                 over JSON-over-HTTP (registered lazily by
                 :mod:`repro.distributed.backend`); byte-identical
                 to ``blocked`` and degrades to it losslessly
===============  ==================================================

Every backend but ``python`` computes its fast-grid rows through one
seam, :func:`~repro.core.fastgrid.fastgrid_row_contributions`, whose
window-sum path :func:`~repro.core.fastgrid.window_sum_path` picks from
``(n, k, kernel, dtype)`` alone.

Backends automatically fall back to the dense O(k·n²) evaluation for
kernels without a polynomial form (Cosine, Gaussian), matching paper
footnote 1.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.exceptions import BackendError
from repro.kernels import Kernel, get_kernel
from repro.core.blockwise import cv_scores_blocked, cv_scores_blocked_shm
from repro.core.fastgrid import (
    cv_scores_fastgrid,
    cv_scores_fastgrid_python,
    fastgrid_row_contributions,
)
from repro.core.loocv import cv_scores_dense_grid
from repro.obs.tracer import current_tracer
from repro.parallel import WorkerPool
from repro.utils.numeric import fold_rows

__all__ = [
    "GridBackend",
    "BACKEND_REGISTRY",
    "get_backend",
    "list_backends",
    "register_backend",
]

#: Signature of a grid backend.
GridBackend = Callable[..., np.ndarray]

BACKEND_REGISTRY: Dict[str, GridBackend] = {}


def register_backend(name: str, backend: GridBackend, *, overwrite: bool = False) -> None:
    """Register a grid backend under ``name``."""
    if name in BACKEND_REGISTRY and not overwrite:
        raise BackendError(f"backend {name!r} is already registered")
    BACKEND_REGISTRY[name] = backend


def get_backend(name: str) -> GridBackend:
    """Look up a backend, importing heavy subsystems on demand."""
    if name in ("gpusim", "gpusim-tiled") and name not in BACKEND_REGISTRY:
        # The CUDA port registers itself at import time.
        import repro.cuda_port  # noqa: F401
    if name == "distributed" and name not in BACKEND_REGISTRY:
        # The fleet coordinator registers itself at import time.
        import repro.distributed.backend  # noqa: F401

    try:
        return BACKEND_REGISTRY[name]
    except KeyError:
        known = ", ".join(
            sorted(set(BACKEND_REGISTRY) | {"gpusim", "gpusim-tiled", "distributed"})
        )
        raise BackendError(f"unknown backend {name!r}; known: {known}") from None


def list_backends() -> list[str]:
    """Registered backend names (gpusim included once imported)."""
    return sorted(BACKEND_REGISTRY)


def _wants_dense(kernel: str | Kernel) -> bool:
    return not get_kernel(kernel).supports_fast_grid


def _python_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    **_: object,
) -> np.ndarray:
    dense = _wants_dense(kernel)
    with current_tracer().span(
        "backend:python", n=int(np.asarray(x).shape[0]), k=len(bandwidths),
        dense=dense,
    ):
        if dense:
            return cv_scores_dense_grid(x, y, bandwidths, kernel)
        return cv_scores_fastgrid_python(x, y, bandwidths, kernel)


def _numpy_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
    dtype: str = "float64",
    **_: object,
) -> np.ndarray:
    dense = _wants_dense(kernel)
    with current_tracer().span(
        "backend:numpy", n=int(np.asarray(x).shape[0]), k=len(bandwidths),
        dense=dense,
    ):
        if dense:
            return cv_scores_dense_grid(
                x, y, bandwidths, kernel, chunk_rows=chunk_rows
            )
        return cv_scores_fastgrid(
            x, y, bandwidths, kernel, chunk_rows=chunk_rows, dtype=dtype
        )


def _multicore_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    workers: int | None = None,
    pool: WorkerPool | None = None,
    dtype: str = "float64",
    **_: object,
) -> np.ndarray:
    n = int(np.asarray(x).shape[0])
    with current_tracer().span(
        "backend:multicore", n=n, k=len(bandwidths), dense=_wants_dense(kernel)
    ) as span:
        if _wants_dense(kernel):
            # Dense path parallelises poorly per-h; evaluate serially rather
            # than silently multiplying the O(k·n²) cost by pool overhead.
            return cv_scores_dense_grid(x, y, bandwidths, kernel)
        kern = get_kernel(kernel)
        grid = np.asarray(bandwidths, dtype=float)
        shared = (
            np.asarray(x, dtype=float),
            np.asarray(y, dtype=float),
            grid,
            kern.name,
        )

        def block_args(start: int, stop: int) -> tuple:
            return shared + (start, stop, dtype)

        owned = pool is None
        active = pool or WorkerPool(workers)
        span.set(workers=active.workers)
        try:
            # Ordered per-worker row matrices folded in global row order:
            # the canonical strict fold makes the curve bit-identical to
            # the serial numpy backend at every worker count.
            partials = active.map_over_blocks(
                fastgrid_row_contributions, n, block_args=block_args
            )
        finally:
            if owned:
                active.close()
        sums = np.zeros(len(grid), dtype=np.float64)
        for part in partials:
            fold_rows(part, sums)
        return sums / n


def _blocked_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    dtype: str = "float64",
    **_: object,
) -> np.ndarray:
    dense = _wants_dense(kernel)
    with current_tracer().span(
        "backend:blocked", n=int(np.asarray(x).shape[0]), k=len(bandwidths),
        dense=dense,
    ):
        if dense:
            # Dense kernels have no rolling-sum form; the dense evaluator
            # already chunks its row slabs, so just bound the chunk size.
            return cv_scores_dense_grid(x, y, bandwidths, kernel)
        return cv_scores_blocked(
            x, y, bandwidths, get_kernel(kernel).name,
            memory_budget=memory_budget, block_rows=block_rows, dtype=dtype,
        )


def _blocked_shm_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    workers: int | None = None,
    dtype: str = "float64",
    **_: object,
) -> np.ndarray:
    dense = _wants_dense(kernel)
    with current_tracer().span(
        "backend:blocked-shm", n=int(np.asarray(x).shape[0]),
        k=len(bandwidths), dense=dense,
    ):
        if dense:
            return cv_scores_dense_grid(x, y, bandwidths, kernel)
        return cv_scores_blocked_shm(
            x, y, bandwidths, get_kernel(kernel).name,
            memory_budget=memory_budget, block_rows=block_rows,
            workers=workers, dtype=dtype,
        )


register_backend("python", _python_backend)
register_backend("numpy", _numpy_backend)
register_backend("multicore", _multicore_backend)
register_backend("blocked", _blocked_backend)
register_backend("blocked-shm", _blocked_shm_backend)
