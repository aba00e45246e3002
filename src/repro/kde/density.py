"""Kernel density estimation.

    f̂(x) = (1/(n·h)) · Σ_l K((x − X_l)/h)

with the bandwidth fixed, rule-of-thumb, or LSCV-grid selected (the
paper's fast-grid machinery applied to KDE — see :mod:`repro.kde.lscv`).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.exceptions import SelectionError, ValidationError
from repro.kernels import Kernel, get_kernel
from repro.core.grid import BandwidthGrid
from repro.core.result import SelectionResult
from repro.kde.lscv import lscv_scores_fastgrid, lscv_scores_grid, supports_fast_lscv
from repro.kde.rot import scott_bandwidth, silverman_bandwidth
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.validation import as_float_array, check_bandwidth

__all__ = ["KernelDensity", "kde_evaluate", "select_kde_bandwidth"]


def kde_evaluate(
    x: np.ndarray,
    at: np.ndarray,
    h: float,
    kernel: str | Kernel = "epanechnikov",
    *,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Evaluate the KDE of sample ``x`` at points ``at``."""
    x = as_float_array(x, name="x")
    at = as_float_array(at, name="at")
    kern = get_kernel(kernel)
    h = check_bandwidth(h)
    n = x.shape[0]
    out = np.empty(at.shape[0], dtype=np.float64)
    rows = chunk_rows or suggest_chunk_rows(n, working_arrays=2)
    for sl in chunk_slices(at.shape[0], rows):
        w = kern((at[sl, None] - x[None, :]) / h)
        out[sl] = w.sum(axis=1) / (n * h)
    return out


def select_kde_bandwidth(
    x: np.ndarray,
    *,
    method: str = "lscv-grid",
    kernel: str | Kernel = "epanechnikov",
    n_bandwidths: int = 50,
    grid: BandwidthGrid | None = None,
) -> SelectionResult:
    """Select a KDE bandwidth.

    ``method``:

    * ``"lscv-grid"`` — least-squares CV over a grid, using the fast
      sorted sweep when the kernel supports it (Epanechnikov, Uniform).
    * ``"silverman"`` / ``"scott"`` — normal-reference rules of thumb.
    """
    x = as_float_array(x, name="x")
    start = time.perf_counter()
    kern = get_kernel(kernel)

    if method in ("silverman", "scott"):
        h = (
            silverman_bandwidth(x, kern)
            if method == "silverman"
            else scott_bandwidth(x, kern)
        )
        return SelectionResult(
            bandwidth=h,
            score=float(lscv_scores_grid(x, np.array([h]), kern)[0]),
            method=f"kde-{method}",
            backend="numpy",
            kernel=kern.name,
            n_observations=int(x.shape[0]),
            bandwidths=np.array([h]),
            scores=np.empty(0, dtype=np.float64),
            n_evaluations=1,
            wall_seconds=time.perf_counter() - start,
        )

    if method != "lscv-grid":
        raise ValidationError(
            f"unknown KDE method {method!r}; use 'lscv-grid', 'silverman' or 'scott'"
        )

    bw_grid = grid or BandwidthGrid.for_sample(x, n_bandwidths)
    if supports_fast_lscv(kern):
        scores = lscv_scores_fastgrid(x, bw_grid.values, kern)
        backend = "fastgrid"
    else:
        scores = lscv_scores_grid(x, bw_grid.values, kern)
        backend = "dense"
    j = int(np.argmin(scores))
    result = SelectionResult(
        bandwidth=float(bw_grid.values[j]),
        score=float(scores[j]),
        method="kde-lscv-grid",
        backend=backend,
        kernel=kern.name,
        n_observations=int(x.shape[0]),
        bandwidths=bw_grid.values.copy(),
        scores=np.asarray(scores),
        n_evaluations=len(bw_grid),
        wall_seconds=time.perf_counter() - start,
        diagnostics={
            "grid_minimum": bw_grid.minimum,
            "grid_maximum": bw_grid.maximum,
        },
    )
    result.diagnostics["boundary_minimum"] = result.is_boundary_minimum()
    return result


class KernelDensity:
    """KDE with pluggable bandwidth selection (fit/evaluate interface).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.kde import KernelDensity
    >>> x = np.random.default_rng(0).normal(size=400)
    >>> kde = KernelDensity().fit(x)
    >>> density = kde.evaluate(np.linspace(-3, 3, 61))
    >>> bool(np.all(density >= 0))
    True
    """

    def __init__(
        self,
        kernel: str | Kernel = "epanechnikov",
        *,
        bandwidth: float | None = None,
        method: str = "lscv-grid",
        **select_options: Any,
    ):
        self.kernel = get_kernel(kernel)
        if bandwidth is not None:
            bandwidth = check_bandwidth(bandwidth)
        self.bandwidth: float | None = bandwidth
        self.method = method
        self.select_options = select_options
        self.selection_: SelectionResult | None = None
        self.x_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "KernelDensity":
        """Store the sample; select the bandwidth if not fixed."""
        self.x_ = as_float_array(x, name="x")
        if self.bandwidth is None:
            self.selection_ = select_kde_bandwidth(
                self.x_,
                method=self.method,
                kernel=self.kernel,
                **self.select_options,
            )
            self.bandwidth = self.selection_.bandwidth
        return self

    def _check_fitted(self) -> tuple[np.ndarray, float]:
        if self.x_ is None or self.bandwidth is None:
            raise SelectionError("density is not fitted; call fit(x) first")
        return self.x_, self.bandwidth

    def evaluate(self, at: np.ndarray) -> np.ndarray:
        """Density estimates at ``at``."""
        x, h = self._check_fitted()
        return kde_evaluate(x, at, h, self.kernel)

    def integrated_squared_error(
        self, truth, *, grid_points: int = 512, padding: float = 3.0
    ) -> float:
        """ISE against a known pdf (simulation-study metric).

        ``truth`` is a vectorised pdf callable; integration by trapezoid
        over the sample range padded by ``padding`` bandwidths.
        """
        x, h = self._check_fitted()
        lo = float(x.min()) - padding * h
        hi = float(x.max()) + padding * h
        pts = np.linspace(lo, hi, grid_points)
        diff = self.evaluate(pts) - np.asarray(truth(pts), dtype=float)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(diff * diff, pts))
