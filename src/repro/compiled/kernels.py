"""Kernel source for the compiled fast-grid hot path.

These functions are the *scalar-loop* formulation of
:func:`repro.core.fastgrid._window_sums_for_block`, written so that numba
can ``njit`` them unchanged (see :mod:`repro.compiled.api`) while the very
same source remains executable as plain Python — which is how the
fallback-leg test suite proves, on a machine without numba, that the
algorithm is byte-for-byte the numpy reference.

Byte-identity discipline (float64)
----------------------------------
The compiled float64 curves must be **bit-for-bit** the numpy engine's
binned path's, because the serving cache keys both under one fingerprint
family.  Every
arithmetic choice below therefore mirrors the numpy formulation exactly:

* **Binning** replicates ``np.searchsorted(boundaries, d, side="left")``
  with an explicit leftmost-insertion binary search.
* **Histogram accumulation** replicates ``np.bincount``: weights are added
  bin-by-bin in ascending ``j`` (input) order — bins are row-segmented in
  the numpy path, so rows never interleave and a per-row ``j`` loop is the
  identical order.
* **Prefix sums** replicate ``np.cumsum``'s strict left-to-right running
  sum over the first ``k`` bins.
* **Powers** replicate :func:`repro.utils.numeric.int_power`: the same
  left-to-right square-and-multiply chain the reference sweep uses
  (``p == 0 -> 1``, ``p == 1 -> x``, ``p == 2 -> x·x``, higher powers by
  binary exponentiation, MSB first).  Every step is an exactly-rounded
  IEEE multiply, so the scalar loop lands on the vectorised bits at
  *every* polynomial power.  Neither ``x ** p`` (LLVM ``powi``) nor
  ``math.pow`` may be used — numpy's SIMD ``pow``, libm ``pow`` and a
  multiply chain all disagree by an ulp on a few percent of inputs,
  which is exactly why the reference avoids ``**`` too.
* **Term order** and the ``num += scale · s_yd`` accumulation order match
  the reference loop term-for-term.

float32 fast path
-----------------
``window_sums_f32`` mirrors the numpy float32 path's *semantics*: the
distance is formed in float64, rounded to float32 (``astype``), the
per-term distance power is computed in float32 (the same
exactly-rounded multiply chain, so it too is bit-exact against the
vectorised float32 sweep), and all sums are accumulated in float64
(numpy's ``bincount`` casts weights to float64 and ``y`` is float64, so
products promote).  In practice this makes the float32 path
byte-identical to numpy's as well; the *documented* contract is kept
deliberately weaker — ``h_opt`` on the same grid index, curves within
rtol 1e-5 — so a future JIT backend with fused multiplies or a
different float32 promotion rule has headroom without an API break.

Langrené & Warin (arXiv:1712.00993) motivate the compensation discipline:
the fast-sum-updating recurrences are stable only if the window sums are
never *downdated*.  Both formulations here only ever add (prefix sums over
non-negative bins), and the cross-row fold stays in
:func:`repro.utils.numeric.fold_rows`, whose Neumaier shadow the traced
path already records — the compiled engine changes none of that.

No numba import appears in this module: :mod:`repro.compiled.api` owns
the capability probe and applies ``njit`` to these functions when the
probe succeeds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_sums_f32", "window_sums_f64"]


def window_sums_f64(
    x_block: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    boundaries: np.ndarray,
    grid: np.ndarray,
    powers: np.ndarray,
    coeffs: np.ndarray,
    num: np.ndarray,
    den: np.ndarray,
) -> None:
    """Accumulate per-power window sums for a row block, float64.

    ``boundaries`` is ``grid * support_radius`` (precomputed in float64 by
    the caller); ``powers``/``coeffs`` are the kernel's polynomial terms in
    declaration order; ``num``/``den`` are zeroed ``(m, k)`` float64
    outputs accumulated in place.
    """
    m = x_block.shape[0]
    n = x.shape[0]
    k = grid.shape[0]
    n_terms = powers.shape[0]
    dist_row = np.empty(n, dtype=np.float64)
    bin_row = np.empty(n, dtype=np.int64)
    hist_d = np.empty(k, dtype=np.float64)
    hist_yd = np.empty(k, dtype=np.float64)
    for i in range(m):
        xi = x_block[i]
        for j in range(n):
            d = abs(xi - x[j])
            dist_row[j] = d
            # searchsorted(boundaries, d, side="left"): leftmost insertion.
            lo = 0
            hi = k
            while lo < hi:
                mid = (lo + hi) // 2
                if boundaries[mid] < d:
                    lo = mid + 1
                else:
                    hi = mid
            bin_row[j] = lo
        for t in range(n_terms):
            p = powers[t]
            c = coeffs[t]
            # Highest set bit of p, for the square-and-multiply chains
            # below (the association order shared with
            # utils.numeric.int_power — the byte-identity contract).
            top = 1
            while (top << 1) <= p:
                top <<= 1
            for b in range(k):
                hist_d[b] = 0.0
                hist_yd[b] = 0.0
            for j in range(n):
                b = bin_row[j]
                if b < k:
                    if p == 0:
                        dp = 1.0
                    else:
                        d = dist_row[j]
                        dp = d
                        bit = top >> 1
                        while bit:
                            dp = dp * dp
                            if p & bit:
                                dp = dp * d
                            bit >>= 1
                    hist_d[b] += dp
                    hist_yd[b] += y[j] * dp
            s_d = 0.0
            s_yd = 0.0
            for col in range(k):
                s_d += hist_d[col]
                s_yd += hist_yd[col]
                if p == 0:
                    scale = c / 1.0
                else:
                    h = grid[col]
                    hp = h
                    bit = top >> 1
                    while bit:
                        hp = hp * hp
                        if p & bit:
                            hp = hp * h
                        bit >>= 1
                    scale = c / hp
                num[i, col] += scale * s_yd
                den[i, col] += scale * s_d


def window_sums_f32(
    x_block: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    boundaries: np.ndarray,
    grid: np.ndarray,
    powers: np.ndarray,
    coeffs: np.ndarray,
    num: np.ndarray,
    den: np.ndarray,
) -> None:
    """Float32 fast path: float32 distances/powers, float64 accumulation.

    Mirrors the numpy float32 semantics — the distance slab is rounded to
    float32 before binning and powering, while every running sum stays in
    float64 (numpy promotes the weighted products and histogram weights).
    ``num``/``den`` remain float64 ``(m, k)`` outputs.
    """
    m = x_block.shape[0]
    n = x.shape[0]
    k = grid.shape[0]
    n_terms = powers.shape[0]
    dist_row = np.empty(n, dtype=np.float32)
    bin_row = np.empty(n, dtype=np.int64)
    hist_d = np.empty(k, dtype=np.float64)
    hist_yd = np.empty(k, dtype=np.float64)
    for i in range(m):
        xi = x_block[i]
        for j in range(n):
            dist_row[j] = abs(xi - x[j])
            d32 = dist_row[j]
            lo = 0
            hi = k
            while lo < hi:
                mid = (lo + hi) // 2
                if boundaries[mid] < d32:
                    lo = mid + 1
                else:
                    hi = mid
            bin_row[j] = lo
        for t in range(n_terms):
            p = powers[t]
            c = coeffs[t]
            top = 1
            while (top << 1) <= p:
                top <<= 1
            for b in range(k):
                hist_d[b] = 0.0
                hist_yd[b] = 0.0
            for j in range(n):
                b = bin_row[j]
                if b < k:
                    if p == 0:
                        dp = np.float32(1.0)
                    else:
                        # Square-and-multiply in float32: every step an
                        # exactly-rounded float32 multiply, matching the
                        # vectorised float32 chain bit for bit.
                        d32 = dist_row[j]
                        dp = d32
                        bit = top >> 1
                        while bit:
                            dp = dp * dp
                            if p & bit:
                                dp = dp * d32
                            bit >>= 1
                    hist_d[b] += dp
                    hist_yd[b] += y[j] * dp
            s_d = 0.0
            s_yd = 0.0
            for col in range(k):
                s_d += hist_d[col]
                s_yd += hist_yd[col]
                if p == 0:
                    scale = c / 1.0
                else:
                    # The scale stays float64: the reference divides by
                    # int_power(grid, p) on the float64 grid.
                    h = grid[col]
                    hp = h
                    bit = top >> 1
                    while bit:
                        hp = hp * hp
                        if p & bit:
                            hp = hp * h
                        bit >>= 1
                    scale = c / hp
                num[i, col] += scale * s_yd
                den[i, col] += scale * s_d
