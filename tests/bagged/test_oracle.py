"""Bagged votes against an independent dense-CV oracle.

Each subsample's vote is recomputed from scratch: the naive O(k·m²)
``cv_scores_dense_grid`` on ``plan.take(i)`` over the full-sample grid
inflated by ``(n/m)^(1/5)``, then the documented argmin rule (skip the
leading run of exact zeros that empty windows produce, then take the
first minimum).  The selection's votes must be exactly those grid
points and ``h_opt`` exactly their geometric mean (a unanimous vote
passes through unchanged).  m = 300 takes the binned window-sum path and
runs all eight kernels over three subsamples; m = 600 takes the sorted
path and runs the six fast-grid kernels over two, which keeps the dense
oracle's O(k·m²) cost down.  The inputs add ties (x rounded to 0.01) and a large
offset (x + 1e6) to the plain paper sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import select_bandwidth
from repro.bagged.plan import plan_subsamples
from repro.core.loocv import cv_scores_dense_grid
from repro.data import paper_dgp
from repro.kernels import fast_grid_kernels, list_kernels

N = 3000
GRID = np.linspace(0.01, 0.3, 30)

_BASE = paper_dgp(N, seed=0)
SAMPLES = {
    "paper": (_BASE.x, _BASE.y),
    "ties": (np.round(_BASE.x, 2), _BASE.y),
    "offset": (_BASE.x + 1e6, _BASE.y),
}

#: Subsample count per subsample size.
SUBSAMPLES = {300: 3, 600: 2}

CASES = [(300, kernel) for kernel in list_kernels()] + [
    (600, kernel) for kernel in fast_grid_kernels()
]


def _oracle_votes(x, y, m: int, kernel: str, root_seed: int) -> np.ndarray:
    r = SUBSAMPLES[m]
    plan = plan_subsamples(N, subsamples=r, subsample_size=m, root_seed=root_seed)
    inflated = GRID * (N / m) ** 0.2
    votes = []
    for i in range(r):
        xs, ys = plan.take(i, x, y)
        curve = cv_scores_dense_grid(xs, ys, inflated, kernel)
        first = int(np.flatnonzero(curve > 0.0)[0])
        votes.append(GRID[first + int(np.argmin(curve[first:]))])
    return np.array(votes, dtype=np.float64)


def _geometric_mean(votes: np.ndarray) -> float:
    if np.all(votes == votes[0]):
        return float(votes[0])
    return float(np.exp(np.mean(np.log(votes))))


@pytest.mark.parametrize("sample", list(SAMPLES))
@pytest.mark.parametrize(("m", "kernel"), CASES)
def test_votes_match_the_dense_oracle(sample, m, kernel) -> None:
    x, y = SAMPLES[sample]
    root_seed = len(kernel) % 3
    res = select_bandwidth(
        x, y, method="bagged", kernel=kernel, grid=GRID,
        subsamples=SUBSAMPLES[m], subsample_size=m, root_seed=root_seed,
    )
    votes = _oracle_votes(x, y, m, kernel, root_seed)
    assert res.bandwidths.tobytes() == votes.tobytes()
    assert res.bandwidth == _geometric_mean(votes)
