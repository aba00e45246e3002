"""Leave-one-out cross-validation objective for kernel regression.

Implements ``CV_lc(h)`` of paper eq. (1)/(2) (Li & Racine eq. 3.20):

    CV_lc(h) = n⁻¹ Σ_i (Y_i − ĝ₋ᵢ(X_i))² M(X_i)

with ĝ₋ᵢ the leave-one-out Nadaraya–Watson estimator and ``M(X_i)`` the
indicator that its denominator is non-zero.

* :func:`cv_score_reference` — transparently literal double loop, the
  ground truth for unit tests (use only for tiny n).
* :func:`dense_row_contributions` — the dense O(k·n²) rows, one
  observation's squared leave-one-out residual per grid bandwidth, as
  partition-invariant as the fast rows: the grid path for kernels
  without a polynomial form (Cosine, Gaussian), the fast grid's ablation
  baseline, and the numerical optimiser's objective (serially or on the
  ``blocked-shm`` executor).  :func:`cv_scores_dense_grid` and
  :func:`cv_score` fold them in row order
  (:func:`~repro.utils.numeric.fold_rows`), so their bits do not depend
  on the row blocks or the worker count.
* :func:`loo_estimates` — the estimates ``ĝ₋ᵢ(X_i)`` from the same sums.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import Kernel, get_kernel
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.numeric import fold_rows
from repro.utils.validation import (
    check_bandwidth,
    check_paired_samples,
    ensure_bandwidths,
)

__all__ = [
    "cv_score_reference",
    "loo_estimates",
    "cv_score",
    "cv_scores_dense_grid",
    "dense_block_rows",
    "dense_cv_sums",
    "dense_row_contributions",
]

#: Row-block-shaped temporaries a dense block keeps alive (differences,
#: scaled differences, weights, and the kernel's own scratch).
DENSE_WORKING_ARRAYS = 4


def cv_score_reference(
    x: np.ndarray,
    y: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
) -> float:
    """Literal scalar-loop evaluation of ``CV_lc(h)`` (testing ground truth).

    O(n²) python loops — intended for n up to a few hundred.
    """
    x, y = check_paired_samples(x, y)
    kern = get_kernel(kernel)
    h = check_bandwidth(h)
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        num = 0.0
        den = 0.0
        for l in range(n):
            if l == i:
                continue
            w = float(kern(np.array([(x[i] - x[l]) / h]))[0])
            num += y[l] * w
            den += w
        if den > 0.0:
            resid = y[i] - num / den
            total += resid * resid
    return total / n


def dense_block_rows(n: int, block_rows: int | None = None) -> int:
    """Rows per dense block: the 256 MiB chunk rule, capped by ``block_rows``."""
    rows = suggest_chunk_rows(n, working_arrays=DENSE_WORKING_ARRAYS)
    return rows if block_rows is None else min(rows, block_rows)


def _loo_window_sums(
    w: np.ndarray, y: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(Σ_l w_il·y_l, Σ_l w_il)`` for weight rows ``start, start + 1, ...``.

    Zeroes each row's own weight (the "leave one out") in place first.
    Both sums run row by row — ``einsum`` and ``sum(axis=1)``, never a
    BLAS ``w @ y``, whose per-row bits depend on how many rows share the
    call — so a row's sums do not depend on the block it sits in.
    """
    m = w.shape[0]
    w[np.arange(m), np.arange(start, start + m)] = 0.0
    return np.einsum("ij,j->i", w, y), w.sum(axis=1)


def dense_row_contributions(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense squared leave-one-out residual rows for ``[start, stop)``.

    Returns ``(rows, empty)``: the float64 ``(stop - start, k)`` matrix
    whose row ``i`` is observation ``start + i``'s contribution to
    ``n · CV_lc(h)`` per grid bandwidth (0 where its window is empty,
    ``M(X_i) = 0``), and the int64 count of empty windows per column.
    Each row depends only on its observation and the whole sample, so
    the rows are **partition-invariant**.  Inputs are taken as validated.
    """
    kern = get_kernel(kernel)
    grid = np.asarray(bandwidths, dtype=np.float64)
    diff = x[start:stop, None] - x[None, :]
    ys = y[start:stop]
    m = stop - start
    rows = np.empty((m, grid.shape[0]), dtype=np.float64)
    empty = np.empty(grid.shape[0], dtype=np.int64)
    for j, h in enumerate(grid):
        w = kern(diff / h)
        num, den = _loo_window_sums(w, y, start)
        ok = den > 0.0
        resid = np.where(ok, ys - num / np.where(ok, den, 1.0), 0.0)
        rows[:, j] = resid * resid
        empty[j] = m - np.count_nonzero(ok)
    return rows, empty


def dense_cv_sums(
    x: np.ndarray,
    y: np.ndarray,
    grid: np.ndarray,
    kern: Kernel,
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(n · CV_lc(h), empty-window count)`` per column, folded serially.

    Bit-identical to the ``blocked-shm`` executor's fold of the same
    rows at any ``rows`` per block.  Inputs are taken as validated.
    """
    n = x.shape[0]
    total = np.zeros(grid.shape[0], dtype=np.float64)
    empty = np.zeros(grid.shape[0], dtype=np.int64)
    for sl in chunk_slices(n, rows):
        block, block_empty = dense_row_contributions(
            x, y, grid, kern, sl.start, sl.stop
        )
        fold_rows(block, total)
        empty += block_empty
    return total, empty


def loo_estimates(
    x: np.ndarray,
    y: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out estimates ``ĝ₋ᵢ(X_i)`` for one bandwidth.

    Returns ``(g_loo, valid)`` where ``valid`` is the ``M(X_i)`` mask;
    entries of ``g_loo`` with ``valid == False`` are NaN.

    The weight matrix is built in row chunks (views + in-place ops, per the
    optimisation-guide idioms) so memory stays bounded at any n.
    """
    x, y = check_paired_samples(x, y)
    kern = get_kernel(kernel)
    h = check_bandwidth(h)
    n = x.shape[0]
    g_loo = np.full(n, np.nan, dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    for sl in chunk_slices(n, dense_block_rows(n, chunk_rows)):
        num, den = _loo_window_sums(
            kern((x[sl, None] - x[None, :]) / h), y, sl.start
        )
        ok = den > 0.0
        g_loo[sl] = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
        valid[sl] = ok
    return g_loo, valid


def cv_score(
    x: np.ndarray,
    y: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
) -> float:
    """``CV_lc(h)`` for a single bandwidth (the dense rows, folded)."""
    h = check_bandwidth(h)
    return float(
        cv_scores_dense_grid(x, y, np.array([h]), kernel, chunk_rows=chunk_rows)[0]
    )


def cv_scores_dense_grid(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Naive grid evaluation: ``CV_lc(h)`` independently per grid point.

    O(k·n²) work — this is exactly the complexity the paper's sorted
    algorithm removes, kept as (a) the ablation baseline and (b) the grid
    path for non-polynomial kernels.  The bits ignore ``chunk_rows``.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidths(bandwidths)
    total, _ = dense_cv_sums(
        x, y, grid, get_kernel(kernel), dense_block_rows(x.shape[0], chunk_rows)
    )
    return total / x.shape[0]
