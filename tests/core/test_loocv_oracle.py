"""Independent small-n oracle for every fast-grid path.

Backends that agree byte for byte show consistency, not correctness.
This oracle shares no code with the sweeps: it evaluates ``CV_lc(h)``
from its definition (paper eq. (1), :mod:`repro.core.loocv`) — the
leave-one-out Nadaraya–Watson estimate from the kernel's own weight
function ``K(u)``, with the indicator ``M(X_i)`` that its denominator is
positive — and accumulates every sum with :func:`math.fsum`, so its only
rounding is in the individual weights and one final division each.

It then checks the paper-literal ``python`` sweep, the binned path and
the sorted path for every fast-grid kernel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import fastgrid
from repro.core.fastgrid import cv_scores_fastgrid, cv_scores_fastgrid_python
from repro.kernels import fast_grid_kernels, get_kernel

from tests.core.test_sorted_path import RTOL

N = 150


def _oracle(x: np.ndarray, y: np.ndarray, grid: np.ndarray, kernel: str):
    kern = get_kernel(kernel)
    n = x.shape[0]
    curve = []
    for h in grid:
        squares = []
        for i in range(n):
            others = np.arange(n) != i
            weights = kern((x[i] - x[others]) / h).tolist()
            den = math.fsum(weights)
            if den > 0.0:
                num = math.fsum(
                    w * v for w, v in zip(weights, y[others].tolist())
                )
                squares.append((float(y[i]) - num / den) ** 2)
        curve.append(math.fsum(squares) / n)
    return np.array(curve)


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, N)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, N)
    grid = np.linspace(0.03, 0.6, 12)
    return x, y, grid


@pytest.mark.parametrize("kernel", tuple(fast_grid_kernels()))
def test_every_path_matches_the_fsum_oracle(kernel, sample, monkeypatch):
    x, y, grid = sample
    exact = _oracle(x, y, grid, kernel)
    best = int(np.argmin(exact))

    assert fastgrid.window_sum_path(N, grid.size, kernel) == "binned"
    binned = cv_scores_fastgrid(x, y, grid, kernel)
    python = cv_scores_fastgrid_python(x, y, grid, kernel)
    monkeypatch.setattr(fastgrid, "SORTED_MIN_N", 0)
    monkeypatch.setattr(fastgrid, "SORTED_MIN_N_PER_K", ((9, 0.0),))
    assert fastgrid.window_sum_path(N, grid.size, kernel) == "sorted"
    sorted_ = cv_scores_fastgrid(x, y, grid, kernel)

    for curve in (python, binned, sorted_):
        np.testing.assert_allclose(curve, exact, rtol=RTOL[kernel], atol=0.0)
        assert int(np.argmin(curve)) == best
