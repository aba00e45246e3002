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
        for backend in ("numpy", "blocked-shm"):
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
            "95d59fa249ca264a6867a9cfc357e9e2ee9014f17f890832a0be9b618a0aad0e"
        )
        assert curve_fingerprint(x[:40], y[:40], grid, "epanechnikov") == (
            "bc76e566ee0e6668c894a81f90fbe4cde26edb90530b9ed72af3cbca0c014a69"
        )
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", dtype="float32"
        ) == "4d023822b525cce8b28f64edc0107f415b3a5ef02c7c40b6b5c4c0ede70b0066"
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", backend="gpusim"
        ) == "6032329a136bc9c5c6d50e9a6d62b99a1984a8bc29a831cb9b47e2ede9e025bd"
        assert selection_fingerprint(x, y, grid, "epanechnikov") == (
            "1b0d459b1568ab1c6c51c9f6e9148ce30095a5f1fa80f7d7e55b86bfbb483ad7"
        )
        assert selection_fingerprint(
            x, y, grid, "epanechnikov", backend="blocked-shm",
            options={"refine_rounds": 1},
        ) == "d850c8f96ad783b949248f13925b817599b8f706c49307bfb1e1f5b1a1c0762f"

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
            "9c87e6774a903938b4bfb9eea1bf7ee003b9423f7767abcb006d3fad85a5d198"
        )
        assert key(300) == (
            "9d658addb038f3e3afad9b0bdb2a51d96f5f0f64168131e1fa6769191770931e"
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
