"""Least-squares cross-validation for kernel density estimation.

Paper §II: "the methods developed here for least-squares cross-validation
can be applied to many similar problems in nonparametric estimation,
including optimal bandwidth selection for kernel density estimation".
This module is that application.

The LSCV objective (Silverman 1986, eq. 3.35; exact pairwise form):

    LSCV(h) = R(K)/(n·h)
            + (1/(n²·h)) · Σ_{i≠j} K̄((X_i−X_j)/h)
            − (2/(n·(n−1)·h)) · Σ_{i≠j} K((X_i−X_j)/h)

where ``K̄`` is the kernel self-convolution.  Minimising LSCV over ``h``
estimates the minimiser of integrated squared error.

Both double sums are sums of compact polynomial functions of ``d/h`` when
the kernel is Epanechnikov or Uniform — so exactly the paper's sorted
window-sum trick applies, with two windows per grid bandwidth (``d <= 2h``
for the convolution term, ``d <= h`` for the kernel term).
:func:`lscv_scores_fastgrid` evaluates the whole grid on the regression
sweep's own window sums (:mod:`repro.core.fastgrid`) with y ≡ 1; the dense
:func:`lscv_scores_grid` covers every kernel and is the test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastgrid import (
    _SortedSample,
    _window_sums_for_block,
    plan_fastgrid_blocks,
    window_sum_path,
)
from repro.exceptions import ValidationError
from repro.kernels import Kernel, get_kernel
from repro.kde.convolution import ConvolutionKernel, self_convolution
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.numeric import fold_rows
from repro.utils.validation import (
    as_float_array,
    check_bandwidth,
    ensure_bandwidths,
)

__all__ = [
    "lscv_score",
    "lscv_scores_grid",
    "lscv_scores_fastgrid",
    "supports_fast_lscv",
]


def supports_fast_lscv(kernel: str | Kernel) -> bool:
    """Whether the sorted fast-grid LSCV applies to ``kernel``.

    Requires *both* the kernel and its self-convolution to be compact
    polynomials (Epanechnikov, Uniform).
    """
    kern = get_kernel(kernel)
    if not kern.supports_fast_grid:
        return False
    try:
        conv = self_convolution(kern)
    except NotImplementedError:
        return False
    return conv.supports_fast_grid


def _pair_sums_dense(
    x: np.ndarray,
    h: float,
    kern: Kernel,
    conv: ConvolutionKernel,
    chunk_rows: int | None,
) -> tuple[float, float]:
    """``(Σ_{i≠j} K̄(δ), Σ_{i≠j} K(δ))`` for one bandwidth, chunked."""
    n = x.shape[0]
    rows = chunk_rows or suggest_chunk_rows(n, working_arrays=3)
    conv_sum = 0.0
    kern_sum = 0.0
    base = np.arange(n, dtype=np.int64)
    for sl in chunk_slices(n, rows):
        delta = (x[sl, None] - x[None, :]) / h
        idx = base[sl]
        local = base[: idx.shape[0]]
        cw = conv(delta)
        kw = kern(delta)
        cw[local, idx] = 0.0
        kw[local, idx] = 0.0
        conv_sum += float(cw.sum())
        kern_sum += float(kw.sum())
    return conv_sum, kern_sum


def lscv_score(
    x: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
) -> float:
    """LSCV objective at a single bandwidth (dense evaluation)."""
    x = as_float_array(x, name="x")
    if x.size < 2:
        raise ValidationError("LSCV needs at least 2 observations")
    h = check_bandwidth(h)
    kern = get_kernel(kernel)
    conv = self_convolution(kern)
    n = x.shape[0]
    conv_sum, kern_sum = _pair_sums_dense(x, h, kern, conv, chunk_rows)
    return (
        kern.roughness / (n * h)
        + conv_sum / (n * n * h)
        - 2.0 * kern_sum / (n * (n - 1) * h)
    )


def lscv_scores_grid(
    x: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Dense per-bandwidth LSCV over a grid — O(k·n²), any kernel."""
    grid = ensure_bandwidths(bandwidths)
    return np.array(
        [lscv_score(x, float(h), kernel, chunk_rows=chunk_rows) for h in grid]
    )


def lscv_scores_fastgrid(
    x: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
) -> np.ndarray:
    """Fast sorted-window LSCV over a whole grid.

    The KDE counterpart of :func:`repro.core.fastgrid.cv_scores_fastgrid`,
    run on the same window-sum engine: each double sum is the regression
    sweep's denominator with y ≡ 1 (:func:`_pair_sums`).  O(n log n +
    n·k·log n) on the sorted path, which large samples take
    (:func:`repro.core.fastgrid.window_sum_path`), else O(n² log k + n·k)
    on the binned path, versus O(k·n²) for the dense loop.
    """
    x = as_float_array(x, name="x")
    if x.size < 2:
        raise ValidationError("LSCV needs at least 2 observations")
    grid = ensure_bandwidths(bandwidths)
    kern = get_kernel(kernel)
    conv = self_convolution(kern)
    if not (kern.supports_fast_grid and conv.supports_fast_grid):
        raise ValidationError(
            f"kernel {kern.name!r} does not support fast-grid LSCV; "
            "use lscv_scores_grid instead"
        )
    n = x.shape[0]
    conv_sums = _pair_sums(x, grid, conv)
    kern_sums = _pair_sums(x, grid, kern)
    return (
        kern.roughness / (n * grid)
        + conv_sums / (n * n * grid)
        - 2.0 * kern_sums / (n * (n - 1) * grid)
    )


def _pair_sums(
    x: np.ndarray, grid: np.ndarray, kern: Kernel | ConvolutionKernel
) -> np.ndarray:
    """``Σ_{i≠j} K(|X_i − X_j|/h)`` at every grid bandwidth.

    Row i's window sum ``Σ_j K(|X_i − X_j|/h)`` (self included) is the
    fast-grid sweep's ``den`` with y ≡ 1, at ``kern``'s own radius: R for
    the kernel, 2R for its self-convolution.  The rows are folded in
    order, then the n self pairs (distance 0, weight ``c₀``) come off.
    The sample is built here, not through the sweep's one-entry cache:
    K and K̄ would evict each other there, and it would outlive the call.
    """
    n = x.shape[0]
    ones = np.ones(n, dtype=np.float64)
    total = np.zeros(grid.shape[0], dtype=np.float64)
    rows = plan_fastgrid_blocks(n, grid, kern).block_rows
    sorted_path = window_sum_path(n, grid.shape[0], kern) == "sorted"
    sample = _SortedSample(x, ones, grid, kern) if sorted_path else None
    for sl in chunk_slices(n, rows):
        if sample is not None:
            sample.fold_den(sl.start, sl.stop, total)
            continue
        den = _window_sums_for_block(
            x[sl], x, ones, grid, kern, np.dtype(np.float64)
        )[1]
        fold_rows(den, total)
    c0 = sum(t.coefficient for t in kern.poly_terms if t.power == 0)
    return total - n * c0
