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
            "1d008fc01d168526cff2d8ad7426d35b8fd6f889cfb8803c460a4b74968e7bfe"
        )
        assert curve_fingerprint(x[:40], y[:40], grid, "epanechnikov") == (
            "a1dd5dc419e9b89e3bcc481e8c13e3aac82514141b9dbd8e20c85f4d925e3b2c"
        )
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", dtype="float32"
        ) == "33d4a0a683ce3e7d9eee3c85afb705b10764d51294582c175ee37faeaf6a65d5"
        assert curve_fingerprint(
            x, y, grid, "epanechnikov", backend="gpusim"
        ) == "3e595bcbcd9862c421c9b67895956a315a7126bf68f6b8e4355d0126f2f3c107"
        assert selection_fingerprint(x, y, grid, "epanechnikov") == (
            "efd135ef5bbd3031f350cd702fbaa8ee7f020ab17d556eac42326d7b95d3aafa"
        )
        assert selection_fingerprint(
            x, y, grid, "epanechnikov", backend="blocked-shm",
            options={"refine_rounds": 1},
        ) == "38f25ea6efff81ff7f8acff44ba428d086379307c64f4c07d7e3522ede194277"

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
            "96cbab2ed118119d11521e65b18091675aae5bd244dcbabd37884a5891d65178"
        )
        assert key(250) == (
            "c9d732726324d51566da5a6447afa27bb3fe00bf589fd8f26c7d79a8ac38798c"
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
