"""Unit tests for the resumable sweep checkpoint."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ValidationError
from repro.resilience import checkpoint as checkpoint_mod
from repro.resilience.checkpoint import SweepCheckpoint, sweep_fingerprint


def _inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 5.0, 40)
    y = np.cos(x)
    grid = np.linspace(0.3, 2.0, 5)
    return x, y, grid


class TestFingerprint:
    def test_stable_across_calls(self) -> None:
        x, y, grid = _inputs()
        fp_a = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        fp_b = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        assert fp_a == fp_b

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda x, y, g: (x + 1e-12, y, g, "epanechnikov", "float64", 16),
            lambda x, y, g: (x, y * 2, g, "epanechnikov", "float64", 16),
            lambda x, y, g: (x, y, g[:-1], "epanechnikov", "float64", 16),
            lambda x, y, g: (x, y, g, "gaussian", "float64", 16),
            lambda x, y, g: (x, y, g, "epanechnikov", "float32", 16),
            lambda x, y, g: (x, y, g, "epanechnikov", "float64", 8),
        ],
        ids=["x", "y", "grid", "kernel", "dtype", "block_rows"],
    )
    def test_sensitive_to_every_input(self, mutate) -> None:
        x, y, grid = _inputs()
        base = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        assert sweep_fingerprint(*mutate(x, y, grid)) != base


class TestRoundtrip:
    def test_record_flush_load_exact(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        sums = {0: np.array([1.5, 2.5, np.pi]), 16: np.array([0.1, -3.0, 1e-17])}
        ckpt = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=3, block_rows=16
        )
        for start, vec in sums.items():
            ckpt.record_block(start, vec)

        again = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=3, block_rows=16
        )
        assert again.completed_starts == [0, 16]
        assert again.resumed_starts == frozenset({0, 16})
        for start, vec in sums.items():
            np.testing.assert_array_equal(again.get_block(start), vec)

    def test_in_memory_checkpoint(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=10, k=2, block_rows=5
        )
        ckpt.record_block(0, np.array([1.0, 2.0]))
        ckpt.flush()  # no-op, must not fail
        assert ckpt.has_block(0)
        assert ckpt.path is None

    def test_flush_every_batches_writes(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        ckpt = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=1, block_rows=16, flush_every=3
        )
        ckpt.record_block(0, np.array([1.0]))
        ckpt.record_block(16, np.array([2.0]))
        assert not path.exists(), "should not flush before the batch fills"
        ckpt.record_block(32, np.array([3.0]))
        assert path.exists()

    def test_bad_shape_rejected(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=10, k=3, block_rows=5
        )
        with pytest.raises(ValidationError, match="shape"):
            ckpt.record_block(0, np.zeros(4))

    def test_missing_block_raises(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=10, k=3, block_rows=5
        )
        with pytest.raises(CheckpointError, match="not checkpointed"):
            ckpt.get_block(5)


class TestMismatch:
    def _seeded(self, path) -> None:
        ckpt = SweepCheckpoint.open(
            path, fingerprint="old-sweep", n=40, k=2, block_rows=16
        )
        ckpt.record_block(0, np.array([1.0, 2.0]))

    def test_mismatch_raises_by_default(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        self._seeded(path)
        with pytest.raises(CheckpointError, match="different sweep"):
            SweepCheckpoint.open(
                path, fingerprint="new-sweep", n=40, k=2, block_rows=16
            )

    def test_restart_resets_instead(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        self._seeded(path)
        ckpt = SweepCheckpoint.open(
            path,
            fingerprint="new-sweep",
            n=40,
            k=2,
            block_rows=16,
            on_mismatch="restart",
        )
        assert ckpt.completed_starts == []
        assert ckpt.resumed_starts == frozenset()
        # the stale file is replaced on the next flush
        ckpt.record_block(16, np.array([9.0, 9.0]))
        reread = SweepCheckpoint.open(
            path, fingerprint="new-sweep", n=40, k=2, block_rows=16
        )
        assert reread.completed_starts == [16]

    def test_corrupt_file_is_a_checkpoint_error(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            SweepCheckpoint.open(
                path, fingerprint="fp", n=40, k=2, block_rows=16
            )

    def test_invalid_on_mismatch_value(self, tmp_path) -> None:
        with pytest.raises(ValidationError, match="on_mismatch"):
            SweepCheckpoint.open(
                tmp_path / "c.npz",
                fingerprint="fp",
                n=4,
                k=1,
                block_rows=2,
                on_mismatch="ignore",
            )


class TestDiscard:
    def test_discard_removes_file_and_state(self, tmp_path) -> None:
        path = tmp_path / "sweep.ckpt.npz"
        ckpt = SweepCheckpoint.open(
            path, fingerprint="fp", n=40, k=1, block_rows=16
        )
        ckpt.record_block(0, np.array([4.0]))
        assert path.exists()
        ckpt.discard()
        assert not path.exists()
        assert ckpt.completed_starts == []

    def test_discard_without_file_is_safe(self) -> None:
        ckpt = SweepCheckpoint.open(
            None, fingerprint="fp", n=4, k=1, block_rows=2
        )
        ckpt.discard()  # must not raise


class TestFormatVersion:
    """Version-1 checkpoints are never resumed.

    Version 1 stored sorted-path block sums over ranges of observation
    indices; blocks are now ranges of sorted positions, so resuming a
    version-1 block would count some observations twice and miss others.
    """

    def _write_v1(self, path, x, y, grid, block_rows, monkeypatch) -> None:
        # The version-1 layout: no version key, the version-1 fingerprint,
        # and block sums no current sweep could produce.
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_mod, "_FORMAT_VERSION", 1)
            fp = sweep_fingerprint(
                x, y, grid, "epanechnikov", "float64", block_rows
            )
        starts = np.arange(0, x.shape[0], block_rows, dtype=np.int64)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                fingerprint=np.array(fp),
                starts=starts,
                sums=np.full((starts.size, grid.size), 1e6),
                n=np.int64(x.shape[0]),
                k=np.int64(grid.size),
                block_rows=np.int64(block_rows),
            )

    def test_version_is_two(self) -> None:
        assert checkpoint_mod._FORMAT_VERSION == 2

    def test_v1_file_opens_empty_and_is_overwritten(
        self, tmp_path, monkeypatch
    ) -> None:
        x, y, grid = _inputs()
        path = tmp_path / "sweep.ckpt.npz"
        self._write_v1(path, x, y, grid, 16, monkeypatch)
        fp = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        ckpt = SweepCheckpoint.open(
            path, fingerprint=fp, n=40, k=grid.size, block_rows=16
        )
        assert ckpt.completed_starts == []
        ckpt.record_block(16, np.arange(grid.size, dtype=np.float64))
        reread = SweepCheckpoint.open(
            path, fingerprint=fp, n=40, k=grid.size, block_rows=16
        )
        assert reread.completed_starts == [16]

    @pytest.mark.parametrize("on_mismatch", ["raise", "restart"])
    def test_newer_version_file_raises_and_is_kept(
        self, tmp_path, on_mismatch
    ) -> None:
        x, y, grid = _inputs()
        fp = sweep_fingerprint(x, y, grid, "epanechnikov", "float64", 16)
        path = tmp_path / "sweep.ckpt.npz"
        with open(path, "wb") as handle:
            np.savez(
                handle,
                version=np.int64(3),
                fingerprint=np.array(fp),
                starts=np.array([0], dtype=np.int64),
                sums=np.ones((1, grid.size)),
                n=np.int64(40),
                k=np.int64(grid.size),
                block_rows=np.int64(16),
            )
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="version 3"):
            SweepCheckpoint.open(
                path, fingerprint=fp, n=40, k=grid.size, block_rows=16,
                on_mismatch=on_mismatch,
            )
        assert path.read_bytes() == before

    def test_sorted_sweep_ignores_v1_blocks(self, tmp_path, monkeypatch) -> None:
        from repro.core.fastgrid import cv_scores_fastgrid, window_sum_path
        from repro.resilience.engine import ResilienceConfig, resilient_cv_scores
        from repro.resilience.policy import RetryPolicy

        rng = np.random.default_rng(20170529)
        x = rng.uniform(0.0, 10.0, 600)
        y = np.sin(x) + rng.normal(0.0, 0.3, 600)
        grid = np.linspace(0.2, 3.0, 25)
        assert window_sum_path(600, 25, "epanechnikov") == "sorted"
        path = tmp_path / "sweep.ckpt.npz"
        self._write_v1(path, x, y, grid, 64, monkeypatch)
        config = ResilienceConfig(
            policy=RetryPolicy(max_retries=0, base_delay=0.0),
            sleep=lambda _seconds: None,
            checkpoint=path,
            block_rows=64,
        )
        scores, report = resilient_cv_scores(
            x, y, grid, backend="numpy", config=config
        )
        assert report.blocks_resumed == 0
        clean, _ = resilient_cv_scores(
            x, y, grid, backend="numpy",
            config=dataclasses.replace(config, checkpoint=None),
        )
        assert scores.tobytes() == clean.tobytes()
        np.testing.assert_allclose(
            scores, cv_scores_fastgrid(x, y, grid), rtol=1e-12
        )
