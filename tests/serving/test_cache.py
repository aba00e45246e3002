"""ArtifactCache: fingerprints, tiers, eviction, corruption handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import SelectionResult
from repro.exceptions import CacheError, ValidationError
from repro.serving.cache import (
    ArtifactCache,
    curve_fingerprint,
    selection_fingerprint,
)


@pytest.fixture()
def sample() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 40)
    return x, 2.0 * x + rng.normal(0.0, 0.1, 40)


def _result(bandwidth: float = 0.25) -> SelectionResult:
    grid = np.linspace(0.1, 1.0, 8)
    return SelectionResult(
        bandwidth=bandwidth,
        score=1.5,
        method="grid-search",
        backend="numpy",
        kernel="epanechnikov",
        n_observations=40,
        bandwidths=grid,
        scores=np.linspace(2.0, 1.5, 8),
        n_evaluations=8,
        wall_seconds=0.01,
        diagnostics={"refinements": 0},
    )


class TestFingerprints:
    def test_curve_key_depends_on_data_grid_kernel_backend(self, sample):
        x, y = sample
        grid = np.linspace(0.1, 1.0, 5)
        base = curve_fingerprint(x, y, grid, "epanechnikov")
        assert base == curve_fingerprint(x, y, grid, "epanechnikov")
        assert base != curve_fingerprint(x, y + 1e-12, grid, "epanechnikov")
        assert base != curve_fingerprint(x, y, grid * 1.01, "epanechnikov")
        assert base != curve_fingerprint(x, y, grid, "gaussian")
        assert base != curve_fingerprint(x, y, grid, "epanechnikov", backend="gpusim")

    def test_selection_key_adds_method_and_options(self, sample):
        x, y = sample
        grid = np.linspace(0.1, 1.0, 5)
        base = selection_fingerprint(x, y, grid, "epanechnikov")
        assert base != selection_fingerprint(x, y, grid, "epanechnikov", method="numeric")
        assert base != selection_fingerprint(
            x, y, grid, "epanechnikov", options={"refine_rounds": 2}
        )
        assert base == selection_fingerprint(x, y, grid, "epanechnikov", options={})

    def test_option_order_is_irrelevant(self, sample):
        x, y = sample
        grid = np.linspace(0.1, 1.0, 5)
        a = selection_fingerprint(
            x, y, grid, "epanechnikov", options={"a": 1, "b": 2}
        )
        b = selection_fingerprint(
            x, y, grid, "epanechnikov", options={"b": 2, "a": 1}
        )
        assert a == b


class TestMemoryTier:
    def test_selection_roundtrip_is_bitforbit(self):
        cache = ArtifactCache(None)
        stored = _result()
        cache.put_selection("f" * 64, stored)
        loaded = cache.get_selection("f" * 64)
        assert loaded is not None
        assert loaded.bandwidth == stored.bandwidth
        assert loaded.score == stored.score
        np.testing.assert_array_equal(loaded.bandwidths, stored.bandwidths)
        np.testing.assert_array_equal(loaded.scores, stored.scores)
        assert loaded.diagnostics["cache"] == "hit"
        # The original's diagnostics are untouched.
        assert "cache" not in stored.diagnostics

    def test_miss_returns_none_and_counts(self):
        cache = ArtifactCache(None)
        assert cache.get_selection("0" * 64) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_curve_roundtrip(self):
        cache = ArtifactCache(None)
        grid = np.linspace(0.1, 1.0, 6)
        scores = np.linspace(3.0, 1.0, 6)
        cache.put_curve("a" * 64, grid, scores)
        np.testing.assert_array_equal(cache.get_curve("a" * 64), scores)

    def test_curve_shape_mismatch_raises(self):
        cache = ArtifactCache(None)
        with pytest.raises(CacheError):
            cache.put_curve("a" * 64, np.ones(3), np.ones(4))

    def test_lru_eviction_under_byte_budget(self):
        one_entry = 8 * 6 * 2  # bandwidths + scores, 6 float64 each
        cache = ArtifactCache(None, max_memory_bytes=3 * one_entry)
        grid = np.linspace(0.1, 1.0, 6)
        for i in range(5):
            cache.put_curve(f"{i:064d}", grid, grid * i)
        assert len(cache) <= 3
        assert cache.stats.memory_evictions >= 2
        # The most recent entry survived.
        assert cache.get_curve(f"{4:064d}") is not None

    def test_max_entries_bound(self):
        cache = ArtifactCache(None, max_entries=2)
        grid = np.linspace(0.1, 1.0, 4)
        for i in range(4):
            cache.put_curve(f"{i:064d}", grid, grid)
        assert len(cache) == 2

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError):
            ArtifactCache(None, max_memory_bytes=-1)
        with pytest.raises(ValidationError):
            ArtifactCache(None, max_entries=0)


class TestDiskTier:
    def test_survives_a_new_instance(self, tmp_path):
        first = ArtifactCache(tmp_path / "cache")
        first.put_selection("c" * 64, _result(0.31))
        second = ArtifactCache(tmp_path / "cache")
        loaded = second.get_selection("c" * 64)
        assert loaded is not None
        assert loaded.bandwidth == 0.31
        assert second.stats.hits == 1

    def test_corrupt_file_is_a_miss_and_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_curve("d" * 64, np.ones(3), np.ones(3))
        victim = next(tmp_path.glob("curve-*.npz"))
        victim.write_bytes(b"not an npz")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get_curve("d" * 64) is None
        assert fresh.stats.corrupt_entries == 1
        assert not victim.exists()

    def test_disk_budget_evicts_oldest(self, tmp_path):
        import os
        import time

        grid = np.linspace(0.1, 1.0, 4)
        seeder = ArtifactCache(tmp_path)
        seeder.put_curve("0" * 64, grid, grid)
        old = next(tmp_path.glob("*.npz"))
        stamp = time.time() - 1000
        os.utime(old, (stamp, stamp))
        # Budget holds one artifact but not two: the next put evicts the
        # stale file.
        cache = ArtifactCache(
            tmp_path, max_disk_bytes=int(old.stat().st_size * 1.5)
        )
        cache.put_curve("1" * 64, grid, grid)
        assert cache.stats.disk_evictions >= 1
        assert not old.exists()

    def test_clear_drops_both_tiers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_curve("e" * 64, np.ones(3), np.ones(3))
        cache.clear()
        assert len(cache) == 0
        assert list(tmp_path.glob("*.npz")) == []

    def test_describe_reports_occupancy(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_curve("f" * 64, np.ones(3), np.ones(3))
        desc = cache.describe()
        assert desc["directory"] == str(tmp_path)
        assert desc["memory_entries"] == 1
        assert desc["disk_entries"] == 1
        assert desc["stats"]["puts"] == 1
