"""Backend registrations for the compiled engine.

Two entries join the registry (imported lazily by
:func:`repro.core.backends.get_backend`, mirroring gpusim/distributed):

===================  ======================================================
``compiled``         the chunked in-core sweep with the jitted per-block
                     kernel — the "Sequential C" column made real (numba
                     plays the role of the paper's compiled C program)
``blocked-compiled`` the budget-planned out-of-core sweep driving the same
                     jitted kernel block by block — the fast *and*
                     memory-bounded configuration
===================  ======================================================

Both accept ``require_jit=True`` to turn the silent capability fallback
into a typed ``REPRO_COMPILED_UNAVAILABLE`` failure, and both warm the
JIT *before* the sweep so compilation latency lands in the
``compiled.jit_warmup`` span, never inside a block.  Float64 results are
byte-identical to the binned path of ``numpy``/``blocked`` respectively
— the serving cache keys them under the same fingerprint family
(:func:`repro.serving.cache.canonical_backend`) within one window-sum
path (:func:`repro.serving.cache.sweep_path`).
"""

from __future__ import annotations

import numpy as np

from repro.compiled import api
from repro.core.backends import register_backend
from repro.core.blockwise import cv_scores_blocked
from repro.core.fastgrid import cv_scores_fastgrid
from repro.core.loocv import cv_scores_dense_grid
from repro.kernels import Kernel, get_kernel
from repro.obs.tracer import current_tracer

__all__ = ["compiled_backend", "blocked_compiled_backend"]


def compiled_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
    dtype: str = "float64",
    require_jit: bool = False,
    **_: object,
) -> np.ndarray:
    """In-core sweep on the compiled engine (numpy-compatible options)."""
    dense = not get_kernel(kernel).supports_fast_grid
    with current_tracer().span(
        "backend:compiled",
        n=int(np.asarray(x).shape[0]),
        k=len(bandwidths),
        dense=dense,
        implementation=api.implementation(),
    ):
        if require_jit:
            api.require_available()
        if dense:
            # Non-polynomial kernels have no fast-grid form on any engine.
            return cv_scores_dense_grid(
                x, y, bandwidths, kernel, chunk_rows=chunk_rows
            )
        api.warmup(dtype)
        return cv_scores_fastgrid(
            x,
            y,
            bandwidths,
            kernel,
            chunk_rows=chunk_rows,
            dtype=dtype,
            engine="compiled",
        )


def blocked_compiled_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    dtype: str = "float64",
    require_jit: bool = False,
    **_: object,
) -> np.ndarray:
    """Budget-planned out-of-core sweep on the compiled engine."""
    dense = not get_kernel(kernel).supports_fast_grid
    with current_tracer().span(
        "backend:blocked-compiled",
        n=int(np.asarray(x).shape[0]),
        k=len(bandwidths),
        dense=dense,
        implementation=api.implementation(),
    ):
        if require_jit:
            api.require_available()
        if dense:
            return cv_scores_dense_grid(x, y, bandwidths, kernel)
        api.warmup(dtype)
        return cv_scores_blocked(
            x,
            y,
            bandwidths,
            get_kernel(kernel).name,
            memory_budget=memory_budget,
            block_rows=block_rows,
            dtype=dtype,
            engine="compiled",
        )


# overwrite=True keeps a test-driven importlib.reload() idempotent.
register_backend("compiled", compiled_backend, overwrite=True)
register_backend("blocked-compiled", blocked_compiled_backend, overwrite=True)
