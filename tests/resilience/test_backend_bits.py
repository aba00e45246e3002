"""A resilient curve is the registered backend's own curve, byte for byte.

The engine calls each backend whole, so ``resilience=`` changes which
faults a selection survives, never the bits it returns: a warm cache
entry written with resilience on serves a plain request the curve that
request's own sweep computes, and the reverse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import select_bandwidth
from repro.core.backends import get_backend
from repro.core.fastgrid import window_sum_path
from repro.data import paper_dgp
from repro.kernels import get_kernel, list_kernels
from repro.resilience.engine import resilient_cv_scores
from repro.serving.cache import ArtifactCache

BACKENDS = ["numpy", "blocked-shm", "gpusim-tiled", "gpusim", "python"]
FAST_KERNELS = [k for k in list_kernels() if get_kernel(k).supports_fast_grid]
GRID = np.linspace(0.2, 3.0, 25)

#: n = 600 takes numpy's sorted window-sum path, n = 200 the binned one.
PATHS = {"sorted": 600, "binned": 200}


@pytest.fixture(scope="module")
def samples() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    out = {}
    for path, n in PATHS.items():
        rng = np.random.default_rng(20170529 + n)
        x = rng.uniform(0.0, 10.0, n)
        out[path] = (x, np.sin(x) + rng.normal(0.0, 0.3, n))
        assert window_sum_path(n, GRID.shape[0], "epanechnikov") == path
    return out


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_resilient_curve_is_the_backends_own(samples, backend, kernel, path):
    x, y = samples[path]
    plain = np.asarray(get_backend(backend)(x, y, GRID, kernel), dtype=np.float64)
    resilient, report = resilient_cv_scores(x, y, GRID, kernel, backend=backend)
    assert report.clean and report.backend_used == backend
    assert resilient.tobytes() == plain.tobytes()


#: (sample size, grid size, path): served-mix's cold sweep shape, whose
#: resilient and plain curves differed while the engine summed its own
#: row blocks (then binned, now sorted), the same sample on a grid the
#: binned path keeps, and a small sorted-path shape.
WARM_SHAPES = [
    pytest.param(2000, 500, "sorted", id="served-mix-sorted"),
    pytest.param(2000, 1500, "binned", id="served-mix-binned"),
    pytest.param(600, 25, "sorted", id="sorted"),
]


def _sample(n: int) -> tuple[np.ndarray, np.ndarray]:
    s = paper_dgp(n, seed=3)
    return s.x, s.y


@pytest.mark.parametrize(("n", "k", "path"), WARM_SHAPES)
@pytest.mark.parametrize(
    "writer", [True, None], ids=["resilient-writes", "plain-writes"]
)
def test_a_warm_entry_is_the_readers_own_recompute(n, k, path, writer):
    x, y = _sample(n)
    assert window_sum_path(n, k, "epanechnikov") == path
    reader = None if writer else True
    cache = ArtifactCache()
    select_bandwidth(x, y, n_bandwidths=k, cache=cache, resilience=writer)
    warm = select_bandwidth(x, y, n_bandwidths=k, cache=cache, resilience=reader)
    assert warm.diagnostics["cache"] == "hit"
    fresh = select_bandwidth(x, y, n_bandwidths=k, resilience=reader)
    assert warm.scores.tobytes() == fresh.scores.tobytes()
    assert warm.bandwidth == fresh.bandwidth
