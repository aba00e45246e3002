"""Cache keys carry the window-sum path (sorted or binned).

The sorted path's curves match the binned path's within the tolerance
contract, not bit for bit, so a warm entry must never cross paths: not
between the numpy engine and the compiled backend (which share a
fingerprint family through :func:`canonical_backend`), not between
float64 and float32, and not from caches written before the sorted path
existed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import select_bandwidth
from repro.core import fastgrid
from repro.core.grid import BandwidthGrid
from repro.resilience.checkpoint import sweep_fingerprint
from repro.serving.cache import (
    ArtifactCache,
    curve_fingerprint,
    selection_fingerprint,
    sweep_path,
)

N = 600
GRID = BandwidthGrid.evenly_spaced(0.02, 0.4, 20)


@pytest.fixture()
def sample() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, N)
    return x, np.sin(4.0 * x) + rng.normal(0.0, 0.2, N)


class TestSweepPath:
    def test_numpy_engine_backends_follow_the_rule(self):
        for backend in ("numpy", "multicore", "blocked", "blocked-shm",
                        "distributed"):
            assert sweep_path(N, 20, "epanechnikov", backend=backend) == "sorted"
        assert sweep_path(40, 20, "epanechnikov") == "binned"

    def test_binned_only_configurations(self):
        for backend in ("python", "gpusim", "gpusim-tiled", "compiled",
                        "blocked-compiled"):
            assert sweep_path(N, 20, "epanechnikov", backend=backend) == "binned"
        assert sweep_path(N, 20, "epanechnikov", dtype="float32") == "binned"
        assert sweep_path(N, 20, "epanechnikov", backend="blocked",
                          engine="compiled") == "binned"
        assert sweep_path(N, 20, "epanechnikov", dtype="default") == "sorted"


class TestFingerprints:
    def test_compiled_shares_numpy_key_only_within_a_path(self, sample):
        x, y = sample
        grid = GRID.values
        # Binned on both sides: the family still shares warm entries.
        assert curve_fingerprint(x[:40], y[:40], grid, "epanechnikov") == (
            curve_fingerprint(x[:40], y[:40], grid, "epanechnikov",
                              backend="compiled")
        )
        # Sorted numpy vs binned compiled: different bits, different keys.
        assert curve_fingerprint(x, y, grid, "epanechnikov") != (
            curve_fingerprint(x, y, grid, "epanechnikov", backend="compiled")
        )
        assert selection_fingerprint(x, y, grid, "epanechnikov") != (
            selection_fingerprint(x, y, grid, "epanechnikov",
                                  backend="compiled")
        )
        assert selection_fingerprint(x, y, grid, "epanechnikov") != (
            selection_fingerprint(x, y, grid, "epanechnikov",
                                  options={"dtype": "float32"})
        )

    def test_bagged_key_follows_the_subsample_size(self, sample):
        x, y = sample
        grid = GRID.values

        def key(size: int, backend: str) -> str:
            return selection_fingerprint(
                x, y, grid, "epanechnikov", method="bagged", backend=backend,
                options={"subsample_size": size},
            )

        # m = 560 sweeps sorted, m = 300 binned: only the latter shares
        # its key with the compiled backend.
        assert key(560, "numpy") != key(560, "compiled")
        assert key(300, "numpy") == key(300, "compiled")

    def test_keys_from_before_the_path_existed_never_match(self, sample):
        x, y = sample
        grid = GRID.values
        base = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 0)
        old = hashlib.sha256()
        old.update(b"curve|v1|numpy|")
        old.update(base.encode())
        assert curve_fingerprint(x, y, grid, "epanechnikov") != old.hexdigest()


class TestWarmHits:
    def test_same_path_hit_is_byte_identical(self, sample):
        x, y = sample
        cache = ArtifactCache()
        cold = select_bandwidth(x, y, grid=GRID, cache=cache)
        assert cache.stats.hits == 0
        warm = select_bandwidth(x, y, grid=GRID, cache=cache)
        assert cache.stats.hits_by_kind == {"selection": 1}
        fresh = select_bandwidth(x, y, grid=GRID)
        assert warm.scores.tobytes() == cold.scores.tobytes()
        assert warm.scores.tobytes() == fresh.scores.tobytes()
        assert warm.bandwidth == fresh.bandwidth

    def test_other_path_misses(self, sample, monkeypatch):
        x, y = sample
        cache = ArtifactCache()
        sorted_run = select_bandwidth(x, y, grid=GRID, cache=cache)
        compiled = select_bandwidth(x, y, grid=GRID, backend="compiled",
                                    cache=cache)
        assert cache.stats.hits == 0
        monkeypatch.setattr(fastgrid, "SORTED_MIN_N", 10**18)
        binned = select_bandwidth(x, y, grid=GRID)
        assert compiled.scores.tobytes() == binned.scores.tobytes()
        assert compiled.scores.tobytes() != sorted_run.scores.tobytes()
        np.testing.assert_allclose(compiled.scores, sorted_run.scores,
                                   rtol=1e-10)
        assert compiled.bandwidth == sorted_run.bandwidth
