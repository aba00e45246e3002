"""Leave-one-out cross-validation objective for kernel regression.

Implements ``CV_lc(h)`` of paper eq. (1)/(2) (Li & Racine eq. 3.20):

    CV_lc(h) = n⁻¹ Σ_i (Y_i − ĝ₋ᵢ(X_i))² M(X_i)

with ĝ₋ᵢ the leave-one-out Nadaraya–Watson estimator and ``M(X_i)`` the
indicator that its denominator is non-zero.

Three implementations, slowest to fastest:

* :func:`cv_score_reference` — transparently literal triple loop, the
  ground truth for unit tests (use only for tiny n).
* :func:`loo_estimates` / :func:`cv_score` — dense vectorised single-``h``
  evaluation, chunked over rows so the n×n weight matrix never
  materialises whole.  This is the objective the numerical-optimisation
  selector (the R ``np`` analogue) calls repeatedly.
* :func:`cv_scores_dense_grid` — the naive O(k·n²) grid evaluation the
  paper's complexity analysis starts from: an honest baseline for the
  fast-grid ablation, and the only grid path for kernels without a
  polynomial form (Cosine, Gaussian).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import Kernel, get_kernel
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.validation import check_paired_samples, ensure_bandwidths

__all__ = [
    "cv_score_reference",
    "loo_estimates",
    "cv_score",
    "cv_scores_dense_grid",
    "dense_cv_block_stats",
]


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
    if h <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {h}")
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
    if h <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    n = x.shape[0]
    rows = chunk_rows or suggest_chunk_rows(n, working_arrays=3)
    g_loo = np.full(n, np.nan, dtype=float)
    valid = np.zeros(n, dtype=bool)
    base = np.arange(n, dtype=np.int64)
    for sl in chunk_slices(n, rows):
        u = (x[sl, None] - x[None, :]) / h
        w = kern(u)
        # Zero out the diagonal (the "leave one out"): row i of the chunk
        # corresponds to global observation sl.start + i.
        idx = base[sl]
        w[base[: idx.shape[0]], idx] = 0.0
        den = w.sum(axis=1)
        num = w @ y
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
    """``CV_lc(h)`` for a single bandwidth (dense vectorised path)."""
    g_loo, valid = loo_estimates(x, y, h, kernel, chunk_rows=chunk_rows)
    resid = np.where(valid, y - np.where(valid, g_loo, 0.0), 0.0)
    return float(np.dot(resid, resid) / x.shape[0])


def dense_cv_block_stats(
    x: np.ndarray,
    y: np.ndarray,
    h: float,
    kernel_name: str,
    start: int,
    stop: int,
) -> np.ndarray:
    """Squared-residual sum and invalid count for one ``h``.

    Returns ``array([sq_residual_sum, invalid_count])`` for observations
    ``[start, stop)`` — a summable pair, so parallel reducers can add
    block results directly: the full ``CV_lc(h)`` is the first entry
    summed over a partition of ``range(n)``, divided by n.  Top-level and
    picklable, it is the parallel unit of work for the multicore
    numerical-optimisation selector (the paper's "Multicore R" program
    2).  The invalid count (observations whose leave-one-out window is
    empty, ``M(X_i) = 0``) lets optimisation-based selectors apply the R
    ``np`` convention of treating an undefined CV function as +infinity
    instead of silently dropping terms.
    """
    kern = get_kernel(kernel_name)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = kern((x[start:stop, None] - x[None, :]) / h)
    idx = np.arange(start, stop)
    w[np.arange(idx.shape[0]), idx] = 0.0
    den = w.sum(axis=1)
    num = w @ y
    ok = den > 0.0
    resid = np.where(ok, y[start:stop] - num / np.where(ok, den, 1.0), 0.0)
    return np.array([float(np.dot(resid, resid)), float((~ok).sum())])


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
    path for non-polynomial kernels.

    To avoid paying the pairwise-difference construction k times, each row
    chunk's difference matrix is formed once and rescaled per bandwidth.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidths(bandwidths)
    kern = get_kernel(kernel)
    n = x.shape[0]
    k = grid.shape[0]
    rows = chunk_rows or suggest_chunk_rows(n, working_arrays=4)
    sq_sums = np.zeros(k, dtype=float)
    base = np.arange(n, dtype=np.int64)
    for sl in chunk_slices(n, rows):
        diff = x[sl, None] - x[None, :]
        idx = base[sl]
        local = base[: idx.shape[0]]
        for j, h in enumerate(grid):
            w = kern(diff / h)
            w[local, idx] = 0.0
            den = w.sum(axis=1)
            num = w @ y
            ok = den > 0.0
            resid = np.where(ok, y[sl] - num / np.where(ok, den, 1.0), 0.0)
            sq_sums[j] += float(np.dot(resid, resid))
    return sq_sums / n
