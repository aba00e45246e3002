"""Nightly n = 100,000 scaling smoke for the budgeted numpy backend.

Five times the paper's hard ceiling, inside a 2 GiB working-set budget.
Minutes of sorting, so it is gated twice: the ``scale`` marker (nightly
CI selects ``-m scale``) and ``REPRO_SCALE=1`` (so a plain tier-1
``pytest -x -q`` skips it even when the marker filter is absent).
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.core.api import select_bandwidth
from repro.core.fastgrid import plan_fastgrid_blocks
from repro.core.grid import BandwidthGrid

pytestmark = [
    pytest.mark.scale,
    pytest.mark.skipif(
        os.environ.get("REPRO_SCALE", "") in ("", "0"),
        reason="set REPRO_SCALE=1 to run the n=100,000 scaling smoke",
    ),
]

N = 100_000
K = 25
BUDGET = "2GiB"


def test_n100k_selection_inside_two_gib() -> None:
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, N)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, N)

    grid = BandwidthGrid.for_sample(x, K).values
    plan = plan_fastgrid_blocks(N, grid, "epanechnikov", memory_budget=BUDGET)
    assert plan.predicted_peak_bytes <= 2 * 1024**3
    assert plan.n_blocks > 1

    tracemalloc.start()
    try:
        result = select_bandwidth(
            x, y, backend="numpy", n_bandwidths=K, memory_budget=BUDGET
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # The selection is real (finite optimum away from the grid edges is
    # not guaranteed, but finiteness and a sane positive bandwidth are).
    assert np.isfinite(result.score)
    assert result.bandwidth > 0
    # The planner's model bounds the measured peak — same 1.5x contract
    # the fast tests enforce at n = 20,000 — and both sit far inside the
    # budget that a same-size all-at-once sweep would blow through.
    assert peak <= 1.5 * plan.predicted_peak_bytes
    assert peak <= 2 * 1024**3
