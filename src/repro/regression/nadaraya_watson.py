"""Nadaraya–Watson (local constant) kernel regression.

The estimator the paper's bandwidth is *for* (§IV: "the Nadaraya-Watson
local constant estimator is used ... the most commonly used kernel
regression estimator and the default in the common R package np"):

    ĝ(x) = Σ_l Y_l·K((x − X_l)/h)  /  Σ_l K((x − X_l)/h)

:class:`NadarayaWatson` follows the fit/predict convention; the bandwidth
can be given explicitly or chosen at fit time by any
:class:`repro.core.selectors.BandwidthSelector`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import SelectionError
from repro.kernels import Kernel, get_kernel
from repro.core.result import SelectionResult
from repro.core.selectors import BandwidthSelector, GridSearchSelector
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.numeric import is_zero
from repro.utils.validation import (
    as_float_array,
    check_bandwidth,
    check_paired_samples,
)

__all__ = ["NadarayaWatson", "nw_estimate"]


def nw_estimate(
    x: np.ndarray,
    y: np.ndarray,
    at: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the NW estimator at arbitrary points.

    Returns ``(estimates, valid)``; points whose kernel window is empty
    get NaN and ``valid=False`` (the prediction-time counterpart of the
    paper's ``M(X_i)`` indicator).
    """
    x, y = check_paired_samples(x, y)
    at = as_float_array(at, name="at")
    kern = get_kernel(kernel)
    h = check_bandwidth(h)
    m = at.shape[0]
    out = np.full(m, np.nan, dtype=np.float64)
    valid = np.zeros(m, dtype=bool)
    rows = chunk_rows or suggest_chunk_rows(x.shape[0], working_arrays=3)
    for sl in chunk_slices(m, rows):
        w = kern((at[sl, None] - x[None, :]) / h)
        den = w.sum(axis=1)
        num = w @ y
        ok = den > 0.0
        out[sl] = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
        valid[sl] = ok
    return out, valid


class NadarayaWatson:
    """Nadaraya–Watson regression with pluggable bandwidth selection.

    Parameters
    ----------
    kernel:
        Kernel name or instance (Epanechnikov default, as in the paper).
    bandwidth:
        Fixed bandwidth.  When omitted, ``selector`` (default: the fast
        grid search) chooses one during :meth:`fit`.
    selector:
        A :class:`BandwidthSelector` used when ``bandwidth`` is None.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.regression import NadarayaWatson
    >>> rng = np.random.default_rng(1)
    >>> x = rng.uniform(0, 1, 300)
    >>> y = np.sin(6 * x) + rng.normal(0, 0.2, 300)
    >>> model = NadarayaWatson().fit(x, y)
    >>> yhat = model.predict(np.linspace(0.1, 0.9, 5))
    >>> yhat.shape
    (5,)
    """

    def __init__(
        self,
        kernel: str | Kernel = "epanechnikov",
        *,
        bandwidth: float | None = None,
        selector: BandwidthSelector | None = None,
        **selector_options: Any,
    ):
        self.kernel = get_kernel(kernel)
        if bandwidth is not None:
            bandwidth = check_bandwidth(bandwidth)
        self.bandwidth: float | None = bandwidth
        self.selector = selector or (
            None
            if bandwidth is not None
            else GridSearchSelector(self.kernel.name, **selector_options)
        )
        self.selection_: SelectionResult | None = None
        self.x_: np.ndarray | None = None
        self.y_: np.ndarray | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "NadarayaWatson":
        """Store the sample; select the bandwidth if not fixed."""
        x, y = check_paired_samples(x, y)
        self.x_, self.y_ = x, y
        if self.bandwidth is None:
            assert self.selector is not None
            self.selection_ = self.selector.select(x, y)
            self.bandwidth = self.selection_.bandwidth
        return self

    def _check_fitted(self) -> tuple[np.ndarray, np.ndarray, float]:
        if self.x_ is None or self.y_ is None or self.bandwidth is None:
            raise SelectionError("model is not fitted; call fit(x, y) first")
        return self.x_, self.y_, self.bandwidth

    # -- inference ---------------------------------------------------------

    def predict(self, at: np.ndarray) -> np.ndarray:
        """NW estimates at ``at`` (NaN where the kernel window is empty)."""
        x, y, h = self._check_fitted()
        est, _ = nw_estimate(x, y, at, h, self.kernel)
        return est

    def predict_with_validity(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`predict` but also returns the window-non-empty mask."""
        x, y, h = self._check_fitted()
        return nw_estimate(x, y, at, h, self.kernel)

    def fitted_values(self) -> np.ndarray:
        """In-sample estimates ``ĝ(X_i)`` (observation i included)."""
        x, _, _ = self._check_fitted()
        return self.predict(x)

    def loo_fitted_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Leave-one-out estimates ``ĝ₋ᵢ(X_i)`` and the ``M(X_i)`` mask."""
        from repro.core.loocv import loo_estimates

        x, y, h = self._check_fitted()
        return loo_estimates(x, y, h, self.kernel)

    def residuals(self) -> np.ndarray:
        """In-sample residuals ``Y_i − ĝ(X_i)``."""
        x, y, _ = self._check_fitted()
        return y - self.fitted_values()

    def cv_score(self) -> float:
        """``CV_lc`` at the fitted bandwidth."""
        from repro.core.loocv import cv_score as _cv

        x, y, h = self._check_fitted()
        return _cv(x, y, h, self.kernel)

    def r_squared(self) -> float:
        """Pseudo-R²: ``1 − SSR/SST`` using in-sample fits (valid points)."""
        x, y, _ = self._check_fitted()
        fitted = self.fitted_values()
        ok = np.isfinite(fitted)
        resid = y[ok] - fitted[ok]
        centred = y[ok] - y[ok].mean()
        sst = float(np.dot(centred, centred))
        if is_zero(sst):
            return 1.0
        return 1.0 - float(np.dot(resid, resid)) / sst
