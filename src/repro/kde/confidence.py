"""Pointwise confidence intervals for kernel density estimates.

The second of the paper's §II extensions: "the estimation of leave-one-
out cross-validated confidence intervals for kernel density estimates
and kernel regressions".

The KDE at a point is a sample mean,

    f̂(x) = (1/n) Σ_i Z_i(x),   Z_i(x) = K((x − X_i)/h) / h,

so its pointwise standard error is the sample standard deviation of the
``Z_i`` over √n.  The *cross-validated* flavour centres each ``Z_i``
against the leave-one-out estimate ``f̂₋ᵢ(x)`` rather than against ``f̂``
itself; for the mean-based estimator these differ only by the exact
finite-sample factor ``n/(n−1)`` applied here, which is what removes the
own-observation optimism at small n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.kernels import Kernel, get_kernel
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.validation import as_float_array, check_probability

__all__ = ["DensityBand", "kde_confidence_band"]


@dataclass(frozen=True)
class DensityBand:
    """A pointwise confidence band for a density curve.

    The lower bound is clipped at 0 — a density cannot be negative, and
    the normal approximation happily dips below zero in the tails.
    """

    at: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    bandwidth: float

    @property
    def width(self) -> np.ndarray:
        """Band width at each evaluation point."""
        return self.upper - self.lower

    def coverage_of(self, truth: np.ndarray) -> float:
        """Fraction of points whose band contains ``truth``."""
        truth = np.asarray(truth, dtype=float)
        if truth.shape != self.estimate.shape:
            raise ValidationError(
                f"truth shape {truth.shape} != band shape {self.estimate.shape}"
            )
        hit = (truth >= self.lower) & (truth <= self.upper)
        return float(hit.mean())


def kde_confidence_band(
    x: np.ndarray,
    at: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
    *,
    level: float = 0.95,
    chunk_rows: int | None = None,
) -> DensityBand:
    """Pointwise CV'd confidence band for the KDE at points ``at``."""
    x = as_float_array(x, name="x")
    at = as_float_array(at, name="at")
    kern = get_kernel(kernel)
    if h <= 0.0:
        raise ValidationError(f"bandwidth must be positive, got {h}")
    if x.size < 2:
        raise ValidationError("confidence band needs at least 2 observations")
    level = check_probability(level, name="level")
    from scipy import stats  # deferred: only the bands need scipy

    z = float(stats.norm.ppf(0.5 + level / 2.0))

    n = x.shape[0]
    m = at.shape[0]
    est = np.empty(m, dtype=np.float64)
    se = np.empty(m, dtype=np.float64)
    rows = chunk_rows or suggest_chunk_rows(n, working_arrays=3)
    for sl in chunk_slices(m, rows):
        zmat = kern((at[sl, None] - x[None, :]) / h) / h
        mean = zmat.mean(axis=1)
        # Leave-one-out (n-1 denominator) sample variance of the Z_i.
        var = np.square(zmat - mean[:, None]).sum(axis=1) / (n - 1)
        est[sl] = mean
        se[sl] = np.sqrt(var / n)

    return DensityBand(
        at=at,
        estimate=est,
        lower=np.maximum(est - z * se, 0.0),
        upper=est + z * se,
        level=level,
        bandwidth=float(h),
    )
