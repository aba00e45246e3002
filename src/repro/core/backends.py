"""Grid-evaluation backends.

A *backend* maps ``(x, y, bandwidth grid, kernel) -> CV scores`` and
corresponds to one of the paper's execution substrates:

===============  ==================================================
``python``       paper-literal per-observation sorted sweep (the
                 sequential reference; the CUDA thread body)
``numpy``        vectorised fast grid search — the "Sequential C"
                 analogue (numpy plays the role of compiled C) — over
                 row blocks that fit ``memory_budget=`` when given
``blocked-shm``  the same row blocks fanned over a shared-memory
                 worker pool (:mod:`repro.core.blockwise`; zero-copy
                 inputs, O(1) per-block IPC), bit-identical to
                 ``numpy``
``gpusim``       the paper's CUDA program executed on the GPU
                 simulator (registered lazily by
                 :mod:`repro.cuda_port` to avoid an import cycle)
``gpusim-``      the same program over O(t·n) device tiles, past
``tiled``        the 4 GB wall (also from :mod:`repro.cuda_port`)
``distributed``  the blockwise sweep leased out to a worker fleet
                 over JSON-over-HTTP (registered lazily by
                 :mod:`repro.distributed.backend`); byte-identical
                 to ``numpy`` and degrades to it losslessly
===============  ==================================================

Every backend but ``python`` computes its fast-grid rows through one
seam, :func:`~repro.core.fastgrid.fastgrid_row_contributions`, whose
window-sum path :func:`~repro.core.fastgrid.window_sum_path` picks from
``(n, k, kernel, dtype)`` alone, in row blocks whose size one rule
decides (:func:`~repro.core.fastgrid.plan_fastgrid_blocks`): ``block_rows=``
caps it and ``memory_budget=`` (or ``$REPRO_MEM_BUDGET``) fits it to a
byte budget.

Backends automatically fall back to the dense O(k·n²) evaluation for
kernels without a polynomial form (Cosine, Gaussian), matching paper
footnote 1.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.exceptions import BackendError
from repro.kernels import Kernel, get_kernel
from repro.core.blockwise import cv_scores_blocked_shm
from repro.core.fastgrid import cv_scores_fastgrid, cv_scores_fastgrid_python
from repro.core.loocv import cv_scores_dense_grid
from repro.obs.tracer import current_tracer

# Kept importable from here: perfbench/tracing.py times the row fold
# through ``repro.core.backends.fold_rows``.
from repro.utils.numeric import fold_rows  # noqa: F401

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
    block_rows: int | None = None,
    memory_budget: int | float | str | None = None,
    dtype: str = "float64",
    chunk_rows: object = None,
    **_: object,
) -> np.ndarray:
    if chunk_rows is not None:
        # The row cap's old name: fail loudly rather than let ``**_`` drop
        # the caller's memory bound.
        raise BackendError(
            "the numpy backend's chunk_rows= option is now block_rows="
        )
    dense = _wants_dense(kernel)
    with current_tracer().span(
        "backend:numpy", n=int(np.asarray(x).shape[0]), k=len(bandwidths),
        dense=dense,
    ):
        if dense:
            return cv_scores_dense_grid(
                x, y, bandwidths, kernel, chunk_rows=block_rows
            )
        return cv_scores_fastgrid(
            x, y, bandwidths, kernel, block_rows=block_rows,
            memory_budget=memory_budget, dtype=dtype,
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
register_backend("blocked-shm", _blocked_shm_backend)
