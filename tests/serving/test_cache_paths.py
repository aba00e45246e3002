"""Cache keys carry the window-sum path (sorted or binned).

The sorted path's curves match the binned path's within the tolerance
contract, not bit for bit, so a warm entry must never cross paths: not
between float64 and float32, not between sample sizes either side of the
crossover, and not from caches written before the sorted path existed.
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
    def test_sorted_capable_backends_follow_the_rule(self):
        for backend in ("numpy", "multicore", "blocked", "blocked-shm",
                        "distributed"):
            assert sweep_path(N, 20, "epanechnikov", backend=backend) == "sorted"
        assert sweep_path(40, 20, "epanechnikov") == "binned"

    def test_binned_only_configurations(self):
        for backend in ("python", "gpusim", "gpusim-tiled"):
            assert sweep_path(N, 20, "epanechnikov", backend=backend) == "binned"
        assert sweep_path(N, 20, "epanechnikov", dtype="float32") == "binned"
        assert sweep_path(N, 20, "epanechnikov", dtype="default") == "sorted"


def _stable_sample() -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws and products only: the same bits on every platform."""
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, N)
    return x, x * x + rng.uniform(-0.2, 0.2, N)


class TestFingerprints:
    def test_keys_separate_paths_and_dtypes(self, sample):
        x, y = sample
        grid = GRID.values
        assert selection_fingerprint(x, y, grid, "epanechnikov") != (
            selection_fingerprint(x, y, grid, "epanechnikov",
                                  options={"dtype": "float32"})
        )
        assert curve_fingerprint(x, y, grid, "epanechnikov") != (
            curve_fingerprint(x, y, grid, "epanechnikov", dtype="float32")
        )

    def test_digests_are_pinned(self):
        # Changing any of these invalidates every warm cache on disk, so
        # a change must bump ``_FORMAT_VERSION`` on purpose, not by accident.
        x, y = _stable_sample()
        grid = GRID.values
        assert curve_fingerprint(x, y, grid, "epanechnikov") == (
            "2b4508e88a51d1d8c43beafbacfba038067464bba1f0ba3c3eacbf37d425869e"
        )
        assert curve_fingerprint(x[:40], y[:40], grid, "epanechnikov") == (
            "124a3f207fa5cd1a5bc1b2bc88741e032a631c7d0c282c408c5b4448b3128644"
        )
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", dtype="float32"
        ) == "69d403591a2eeca1b5edda8307abd206a6025706297e33a021c7f25eb3494e4d"
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", backend="gpusim"
        ) == "0fd22b0accb1c8086d8ec08e753966f327cbfd6ca0e2b239744e8aee8739864b"
        assert selection_fingerprint(x, y, grid, "epanechnikov") == (
            "cb263c52a02d229362cf28019c496dff68bfdedd6fbf6d6ab1a4e3c0a43e03cc"
        )
        assert selection_fingerprint(
            x, y, grid, "epanechnikov", backend="blocked",
            options={"refine_rounds": 1},
        ) == "1048d1a0d44950ba01d5f7cf09fdb7abcba0b006e5f052dcb8bafa87721161fb"

    def test_bagged_key_follows_the_subsample_size(self, monkeypatch):
        x, y = _stable_sample()
        grid = GRID.values

        def key(size: int) -> str:
            return selection_fingerprint(
                x, y, grid, "epanechnikov", method="bagged",
                options={"subsample_size": size},
            )

        # m = 560 sweeps sorted, m = 300 binned.
        sorted_key = key(560)
        assert sorted_key == (
            "f91f1c39b0f48154b4eb36d0681e95214bf01782ef5f736093e10f27bca4a79f"
        )
        assert key(300) == (
            "0f5e0117e4b5e18f64a133fbd99bd123ca49059967eb73684604fa9ac8f6f00e"
        )
        # Move the crossover: the same m now sweeps binned, under a new key.
        monkeypatch.setattr(fastgrid, "SORTED_MIN_N", 10**18)
        assert key(560) != sorted_key

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
        monkeypatch.setattr(fastgrid, "SORTED_MIN_N", 10**18)
        binned = select_bandwidth(x, y, grid=GRID, cache=cache)
        assert cache.stats.hits == 0
        fresh = select_bandwidth(x, y, grid=GRID)
        assert binned.scores.tobytes() == fresh.scores.tobytes()
        assert binned.scores.tobytes() != sorted_run.scores.tobytes()
        np.testing.assert_allclose(binned.scores, sorted_run.scores,
                                   rtol=1e-10)
        assert binned.bandwidth == sorted_run.bandwidth
