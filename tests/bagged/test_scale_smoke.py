"""Nightly scale smoke: bagged selection at n = 10⁶.

Runs only under both the ``scale`` marker (the nightly CI job selects
``-m scale``) and ``REPRO_SCALE=1`` (so a plain tier-1 ``pytest -x -q``
skips it even when the marker filter is absent).

The smoke dates from the O(n²) binned sweep, which took 1,479 s at
n = 10⁵ in a benchmark since retired, so n = 10⁶ was out of reach for an
exact selection.  The sort-once path now sweeps n = 10⁶ exactly in
about 11 s (DESIGN.md §16), so what this holds is the bagged selector's
own contract at that n: r = 20 subsamples of m = 5000, capped by
default, deterministic under a fixed root seed, and well inside the
time bound.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.api import select_bandwidth

pytestmark = [
    pytest.mark.scale,
    pytest.mark.skipif(
        os.environ.get("REPRO_SCALE", "") in ("", "0"),
        reason="set REPRO_SCALE=1 to run the n=1,000,000 bagged smoke",
    ),
]

N = 1_000_000


def test_n1e6_bagged_selection_is_interactive() -> None:
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, N)
    y = 0.5 * x + 10.0 * x**2 + rng.uniform(0.0, 0.5, N)

    start = time.perf_counter()
    result = select_bandwidth(x, y, method="bagged", root_seed=0)
    wall = time.perf_counter() - start

    assert result.method == "bagged-cv"
    bag = result.diagnostics["bagged"]
    assert bag["n"] == N
    assert bag["subsample_size"] == 5000  # default m cap engaged
    assert bag["n_subsamples"] == 20
    assert np.isfinite(result.score)
    assert 0.0 < result.bandwidth <= 1.0
    # Generous bound for loaded CI boxes.
    assert wall < 600.0

    # Determinism survives scale: the same root seed replays the same
    # subsample votes without rerunning the whole selection.
    again = select_bandwidth(x, y, method="bagged", root_seed=0)
    assert again.bandwidth == result.bandwidth
    assert np.array_equal(again.scores, result.scores)
