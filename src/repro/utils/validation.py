"""Input validation helpers.

All public entry points of the library funnel their array arguments through
these helpers so that error messages are uniform and the numerical code can
assume clean, contiguous, float ndarrays (a guide idiom: validate once at
the boundary, compute without checks in the hot loops).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.exceptions import (
    BandwidthGridError,
    DataShapeError,
    ValidationError,
)

__all__ = [
    "as_float_array",
    "check_bandwidth",
    "check_paired_samples",
    "check_positive_int",
    "ensure_bandwidths",
]


def as_float_array(
    values: Any,
    *,
    name: str = "array",
    dtype: np.dtype | type = np.float64,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``values`` to a 1-D contiguous float array.

    Parameters
    ----------
    values:
        Anything ``np.asarray`` accepts.
    name:
        Argument name used in error messages.
    dtype:
        Target floating dtype (``float64`` default; the GPU path uses
        ``float32`` to mirror the paper's single-precision constraint).
    allow_empty:
        Permit zero-length arrays.

    Raises
    ------
    DataShapeError
        If the result is not 1-D, is empty when not allowed, or contains
        non-finite entries.
    """
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DataShapeError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    if not allow_empty and arr.size == 0:
        raise DataShapeError(f"{name} must not be empty")
    if arr.size and not np.isfinite(arr).all():
        raise DataShapeError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_paired_samples(
    x: Any,
    y: Any,
    *,
    min_size: int = 3,
    dtype: np.dtype | type = np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a regression sample ``(x, y)``.

    Returns clean contiguous arrays of equal length ``n >= min_size``.
    Leave-one-out cross-validation needs at least 3 points: with 2, every
    leave-one-out fit rests on a single neighbour and the CV curve is
    degenerate in ``h``.
    """
    x_arr = as_float_array(x, name="x", dtype=dtype)
    y_arr = as_float_array(y, name="y", dtype=dtype)
    if x_arr.shape[0] != y_arr.shape[0]:
        raise DataShapeError(
            "x and y must have the same length, got "
            f"{x_arr.shape[0]} and {y_arr.shape[0]}"
        )
    if x_arr.shape[0] < min_size:
        raise DataShapeError(
            f"need at least {min_size} observations, got {x_arr.shape[0]}"
        )
    return x_arr, y_arr


def check_bandwidth(h: float) -> float:
    """``h`` as a float, if it is finite and positive (NaN fails ``h > 0``).

    The one scalar-bandwidth guard: a NaN ``h`` would empty every window
    and score 0, the best CV score possible.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValidationError(f"bandwidth must be finite and positive, got {h}")
    return float(h)


def check_positive_int(value: Any, *, name: str, maximum: int | None = None) -> int:
    """Validate that ``value`` is a positive integer (optionally bounded)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    ivalue = int(value)
    if ivalue <= 0:
        raise ValidationError(f"{name} must be positive, got {ivalue}")
    if maximum is not None and ivalue > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {ivalue}")
    return ivalue


def ensure_bandwidths(bandwidths: Any | Sequence[float]) -> np.ndarray:
    """Validate a bandwidth grid: 1-D, positive, strictly increasing.

    The fast grid search relies on the grid being sorted ascending — the
    running sums roll forward from smaller to larger bandwidths — so the
    ordering is part of the contract, not a convenience.
    """
    grid = as_float_array(bandwidths, name="bandwidths")
    if np.any(grid <= 0.0):
        raise BandwidthGridError("bandwidths must all be positive")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise BandwidthGridError("bandwidths must be strictly increasing")
    return grid
