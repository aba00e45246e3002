"""Leave-one-out cross-validated confidence intervals.

Paper §II names this as a direct application of the machinery built here:
"the estimation of leave-one-out cross-validated confidence intervals for
kernel density estimates and kernel regressions".

For the NW estimator at a point x₀ with weights
``w_l = K((x₀−X_l)/h)``, the standard pointwise sandwich variance is

    V̂(x₀) = Σ_l w_l²·ê_l²  /  (Σ_l w_l)²

where ``ê_l`` are residuals.  Using *leave-one-out* residuals
``ê_l = Y_l − ĝ₋ₗ(X_l)`` instead of in-sample residuals removes the
optimistic bias of reusing each observation in its own fit — that is the
cross-validated variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.kernels import Kernel, get_kernel
from repro.core.loocv import loo_estimates
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.validation import as_float_array, check_paired_samples, check_probability

__all__ = ["ConfidenceBand", "loo_confidence_band"]


@dataclass(frozen=True)
class ConfidenceBand:
    """A pointwise confidence band for a kernel regression curve."""

    at: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    valid: np.ndarray
    level: float
    bandwidth: float

    @property
    def width(self) -> np.ndarray:
        """Band width ``upper − lower`` at each evaluation point."""
        return self.upper - self.lower

    def coverage_of(self, truth: np.ndarray) -> float:
        """Fraction of valid points whose band contains ``truth``.

        A simulation-study helper: with a known mean function, repeated
        draws should cover at roughly the nominal level.
        """
        truth = np.asarray(truth, dtype=float)
        if truth.shape != self.estimate.shape:
            raise ValidationError(
                f"truth shape {truth.shape} != band shape {self.estimate.shape}"
            )
        ok = self.valid
        if not ok.any():
            return float("nan")
        hit = (truth[ok] >= self.lower[ok]) & (truth[ok] <= self.upper[ok])
        return float(hit.mean())


def loo_confidence_band(
    x: np.ndarray,
    y: np.ndarray,
    at: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
    *,
    level: float = 0.95,
    chunk_rows: int | None = None,
) -> ConfidenceBand:
    """Pointwise CV'd confidence band for the NW curve at points ``at``.

    Points whose kernel window is empty are flagged invalid (NaN bounds);
    observations with an empty leave-one-out window contribute a zero
    residual, mirroring the ``M(X_i)`` convention of the CV objective.
    """
    x, y = check_paired_samples(x, y)
    at = as_float_array(at, name="at")
    kern = get_kernel(kernel)
    if h <= 0.0:
        raise ValidationError(f"bandwidth must be positive, got {h}")
    level = check_probability(level, name="level")
    from scipy import stats  # deferred: only the bands need scipy

    z = float(stats.norm.ppf(0.5 + level / 2.0))

    g_loo, loo_ok = loo_estimates(x, y, h, kern, chunk_rows=chunk_rows)
    loo_resid_sq = np.where(loo_ok, (y - np.where(loo_ok, g_loo, 0.0)) ** 2, 0.0)

    m = at.shape[0]
    est = np.full(m, np.nan, dtype=np.float64)
    se = np.full(m, np.nan, dtype=np.float64)
    valid = np.zeros(m, dtype=bool)
    rows = chunk_rows or suggest_chunk_rows(x.shape[0], working_arrays=4)
    for sl in chunk_slices(m, rows):
        w = kern((at[sl, None] - x[None, :]) / h)
        den = w.sum(axis=1)
        ok = den > 0.0
        safe = np.where(ok, den, 1.0)
        est[sl] = np.where(ok, (w @ y) / safe, np.nan)
        var = ((w * w) @ loo_resid_sq) / (safe * safe)
        se[sl] = np.where(ok, np.sqrt(var), np.nan)
        valid[sl] = ok

    return ConfidenceBand(
        at=at,
        estimate=est,
        lower=est - z * se,
        upper=est + z * se,
        valid=valid,
        level=level,
        bandwidth=float(h),
    )
