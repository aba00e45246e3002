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
from repro.serving.cache import (
    ArtifactCache,
    curve_fingerprint,
    selection_fingerprint,
    sweep_fingerprint,
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
            "46f98cde511d344641cd38a45ff79a1a25a2cdbdcdfae02848f31b9b99e858b9"
        )
        assert curve_fingerprint(x[:40], y[:40], grid, "epanechnikov") == (
            "be2fd1968c40c79d99edcd7da976829e9d3c09a1096ac6f0406fa52ac681a934"
        )
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", dtype="float32"
        ) == "61c79b6aa8e2f7ae9f4aa97331262a55bdc990ee890ed977154462b353d545cb"
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", backend="gpusim"
        ) == "972f1f2848ba9f5409feb69565973aaa0e980d699fc5024e357b4283087e633e"
        assert selection_fingerprint(x, y, grid, "epanechnikov") == (
            "f35a19960838f9e059261565b9ea27420f338f5a190c48a98af16796eb6c0057"
        )
        assert selection_fingerprint(
            x, y, grid, "epanechnikov", backend="blocked-shm",
            options={"refine_rounds": 1},
        ) == "999b67b3f8386c4a5359dbd2e54b2e573feb8b7cb5f56f853df6c994420a502b"

    def test_bagged_key_follows_the_subsample_size(self, monkeypatch):
        x, y = _stable_sample()
        grid = GRID.values

        def key(size: int) -> str:
            return selection_fingerprint(
                x, y, grid, "epanechnikov", method="bagged",
                options={"subsample_size": size},
            )

        # m = 560 sweeps sorted, m = 250 binned.
        sorted_key = key(560)
        assert sorted_key == (
            "9fa4ca443d82e531fd98b94bcadefb5538f25e8d9c09fe4f99ef61e22122a1f1"
        )
        assert key(250) == (
            "79add27c9d90bc583ff1a6d6cb789b6f040e0c06ee2a81197f7d7ecbc42c64e5"
        )
        # Move the crossover: the same m now sweeps binned, under a new key.
        monkeypatch.setattr(fastgrid, "SORTED_MIN_N", 10**18)
        assert key(560) != sorted_key

    def test_keys_from_before_the_path_existed_never_match(self, sample):
        x, y = sample
        grid = GRID.values
        base = sweep_fingerprint(x, y, grid, "epanechnikov", "float64")
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
