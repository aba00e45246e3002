"""Nightly scale smoke: KDE LSCV selection at n = 10⁶.

Runs only under both the ``scale`` marker (the nightly CI job selects
``-m scale``) and ``REPRO_SCALE=1`` (so a plain tier-1 ``pytest -x -q``
skips it even when the marker filter is absent).

Both LSCV pair sums run on the regression sweep's sorted window sums, so
a 50-point grid at n = 10⁶ is one O(n·k·log n) pass per sum (about 30 s
on a 2-core x86-64 host) where the dense O(k·n²) loop is out of reach.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.grid import BandwidthGrid
from repro.kde import select_kde_bandwidth, silverman_bandwidth

pytestmark = [
    pytest.mark.scale,
    pytest.mark.skipif(
        os.environ.get("REPRO_SCALE", "") in ("", "0"),
        reason="set REPRO_SCALE=1 to run the n=1,000,000 KDE LSCV smoke",
    ),
]

N = 1_000_000
K = 50


def test_n1e6_lscv_selection_is_finite_and_interior() -> None:
    x = np.random.default_rng(0).normal(size=N)

    default = select_kde_bandwidth(x, method="lscv-grid")
    assert default.backend == "fastgrid"
    assert default.scores.shape == (K,)
    assert np.all(np.isfinite(default.scores))

    # The default grid starts at domain/50 (about 0.2σ here), above the
    # LSCV optimum at this n (about 0.15σ), so its answer is its first
    # point.  The same 50 points spread around Silverman's rule bracket it.
    h_rot = silverman_bandwidth(x, "epanechnikov")
    grid = BandwidthGrid.evenly_spaced(0.2 * h_rot, 2.0 * h_rot, K)
    result = select_kde_bandwidth(x, method="lscv-grid", grid=grid)
    assert np.all(np.isfinite(result.scores))
    j = int(np.argmin(result.scores))
    assert 0 < j < K - 1
