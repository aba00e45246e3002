"""Chaos suite: inject every fault class into every backend and demand
bit-for-bit identical bandwidth selection.

The invariant under test is the paper's own decomposition: the CV curve
is a sum of per-row-block partial sums, so recomputing a block (retry),
replaying it from disk (resume), or absorbing a transient fault must not
change a single bit of the scores.  Degrading to a *different* backend
legitimately changes floating-point ordering, so those cases assert the
selected bandwidth (the argmin) instead of the raw scores.

Seeds sweep a CI matrix via ``REPRO_CHAOS_SEED`` (see conftest).
"""

from __future__ import annotations

import dataclasses
import glob
import os

import numpy as np
import pytest

from repro.exceptions import CheckpointError
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import (
    ResilienceConfig,
    default_block_rows,
    resilient_cv_scores,
)
from repro.resilience.policy import RetryBudgetExceeded, RetryPolicy

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def no_shm_litter():
    """Every chaos run — worker crashes, segment unlinks, retry storms —
    must leave ``/dev/shm`` free of ``repro-shm-*`` segments."""
    yield
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro-shm-*") == []

#: (backend, fault spec) cells where the fault is absorbed *in place*
#: (retry on the same backend) — scores must match bit for bit.
RETRY_CELLS = [
    pytest.param(
        "numpy",
        FaultSpec(site="data.block", kind="nan", at=(2,)),
        id="numpy-nan-block",
    ),
    pytest.param(
        "numpy",
        FaultSpec(site="data.block", kind="inf", at=(0, 5)),
        id="numpy-inf-blocks",
    ),
    pytest.param(
        "multicore",
        FaultSpec(site="pool.worker", kind="crash", at=(1,)),
        id="multicore-worker-crash",
    ),
    pytest.param(
        "multicore",
        FaultSpec(site="pool.worker", kind="timeout", at=(3,)),
        id="multicore-block-timeout",
    ),
    pytest.param(
        "multicore",
        FaultSpec(site="data.block", kind="nan", at=(1,)),
        id="multicore-nan-block",
    ),
    pytest.param(
        "gpusim",
        FaultSpec(site="gpusim.launch", kind="launch", at=(0,)),
        id="gpusim-launch-failure",
    ),
    pytest.param(
        "gpusim-tiled",
        FaultSpec(site="data.block", kind="nan", at=(2,)),
        id="gpusim-tiled-nan-block",
    ),
    pytest.param(
        "gpusim-tiled",
        FaultSpec(site="data.block", kind="inf", at=(0,)),
        id="gpusim-tiled-inf-block",
    ),
    pytest.param(
        "blocked",
        FaultSpec(site="data.block", kind="nan", at=(1,)),
        id="blocked-nan-block",
    ),
    pytest.param(
        "blocked",
        FaultSpec(site="data.block", kind="inf", at=(0, 2)),
        id="blocked-inf-blocks",
    ),
    pytest.param(
        "blocked-shm",
        FaultSpec(site="shm.worker", kind="crash", at=(1,)),
        id="blocked-shm-worker-crash",
    ),
    pytest.param(
        "blocked-shm",
        FaultSpec(site="shm.worker", kind="timeout", at=(2,)),
        id="blocked-shm-worker-timeout",
    ),
    pytest.param(
        "blocked-shm",
        FaultSpec(site="data.block", kind="nan", at=(0,)),
        id="blocked-shm-nan-block",
    ),
]

#: Cells where the fault is structural and the engine must *degrade* —
#: the selected bandwidth must survive, the raw bits legitimately change.
DEGRADE_CELLS = [
    pytest.param(
        "gpusim",
        FaultSpec(site="gpusim.malloc", kind="oom", at=(0,)),
        "gpusim-tiled",
        id="gpusim-oom-to-tiled",
    ),
    pytest.param(
        "gpusim-tiled",
        FaultSpec(site="gpusim.malloc", kind="oom", rate=1.0),
        "multicore",
        id="tiled-oom-to-multicore",
    ),
    pytest.param(
        "blocked-shm",
        FaultSpec(site="shm.segment", kind="unlink", at=(0,)),
        "blocked",
        id="shm-unlink-to-blocked",
    ),
]


def _clean_scores(sample, grid, backend, config):
    x, y = sample
    scores, report = resilient_cv_scores(
        x, y, grid, backend=backend, config=config
    )
    assert report.clean, f"fault-free {backend} run must be clean"
    return scores


class TestRetryBitForBit:
    @pytest.mark.parametrize(("backend", "spec"), RETRY_CELLS)
    def test_faulted_run_matches_clean_run(
        self, backend, spec, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        clean = _clean_scores(chaos_sample, chaos_grid, backend, fast_config)
        x, y = chaos_sample
        injector = FaultInjector([spec], seed=chaos_seed)
        with inject_faults(injector):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend=backend, config=fast_config
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.backend_used == backend
        assert not report.degraded
        assert report.retries >= 1
        assert report.faults, "the absorbed fault must be reported"

    @pytest.mark.parametrize("backend", ["numpy", "multicore", "gpusim-tiled"])
    def test_random_rate_faults_still_bit_for_bit(
        self, backend, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        """Seeded Bernoulli faults (the CI seed matrix) instead of fixed indices."""
        clean = _clean_scores(chaos_sample, chaos_grid, backend, fast_config)
        x, y = chaos_sample
        injector = FaultInjector(
            [
                FaultSpec(site="data.block", kind="nan", rate=0.3, max_triggers=4),
            ],
            seed=chaos_seed,
        )
        with inject_faults(injector):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend=backend, config=fast_config
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.retries == len(injector.log)


class TestDegradation:
    @pytest.mark.parametrize(("backend", "spec", "expected"), DEGRADE_CELLS)
    def test_structural_fault_degrades_and_preserves_bandwidth(
        self, backend, spec, expected, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        clean = _clean_scores(chaos_sample, chaos_grid, backend, fast_config)
        x, y = chaos_sample
        with inject_faults(FaultInjector([spec], seed=chaos_seed)):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend=backend, config=fast_config
            )
        assert report.degraded
        assert report.backend_used == expected
        assert chaos_grid[np.argmin(scores)] == chaos_grid[np.argmin(clean)]
        np.testing.assert_allclose(scores, clean, rtol=1e-4)
        codes = [a["outcome"] for a in report.backend_attempts]
        assert codes[-1] == "ok" and any(c != "ok" for c in codes[:-1])

    def test_fallback_disabled_propagates(
        self, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        x, y = chaos_sample
        config = dataclasses.replace(fast_config, fallback=False)
        spec = FaultSpec(site="gpusim.malloc", kind="oom", at=(0,))
        from repro.exceptions import DeviceMemoryError

        with inject_faults(FaultInjector([spec], seed=chaos_seed)):
            with pytest.raises(DeviceMemoryError):
                resilient_cv_scores(
                    x, y, chaos_grid, backend="gpusim", config=config
                )


class TestSharedMemoryChaos:
    """The shm spur is special: its fallback twin computes the *same*
    partition with the same arithmetic, so degradation is lossless —
    stronger than the allclose contract of the generic degrade cells."""

    def test_unlink_degradation_is_bit_identical(
        self, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        clean = _clean_scores(chaos_sample, chaos_grid, "blocked", fast_config)
        x, y = chaos_sample
        spec = FaultSpec(site="shm.segment", kind="unlink", at=(0,))
        with inject_faults(FaultInjector([spec], seed=chaos_seed)):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend="blocked-shm", config=fast_config
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.degraded
        assert report.backend_used == "blocked"

    def test_worker_death_storm_is_bit_for_bit_and_leak_free(
        self, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        clean = _clean_scores(
            chaos_sample, chaos_grid, "blocked-shm", fast_config
        )
        x, y = chaos_sample
        storm = FaultInjector(
            [
                FaultSpec(
                    site="shm.worker", kind="crash", rate=0.4, max_triggers=3
                ),
            ],
            seed=chaos_seed,
        )
        with inject_faults(storm):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend="blocked-shm", config=fast_config
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.backend_used == "blocked-shm"
        assert not report.degraded
        assert report.retries == len(storm.log)
        # The autouse fixture re-checks this, but the point of the test
        # deserves its own assertion: crashes must not leak segments.
        if os.path.isdir("/dev/shm"):
            assert glob.glob("/dev/shm/repro-shm-*") == []

    def test_blocked_and_blocked_shm_agree_bit_for_bit_when_clean(
        self, chaos_sample, chaos_grid, fast_config
    ) -> None:
        a = _clean_scores(chaos_sample, chaos_grid, "blocked", fast_config)
        b = _clean_scores(
            chaos_sample, chaos_grid, "blocked-shm", fast_config
        )
        np.testing.assert_array_equal(a, b)


class TestCheckpointResume:
    def _config(self, fast_config, path, *, max_retries, keep=True):
        return dataclasses.replace(
            fast_config,
            policy=RetryPolicy(max_retries=max_retries, base_delay=0.0),
            checkpoint=path,
            keep_checkpoint=keep,
        )

    def test_resume_after_crash_is_bit_for_bit(
        self, chaos_sample, chaos_grid, chaos_seed, fast_config, tmp_path
    ) -> None:
        x, y = chaos_sample
        clean = _clean_scores(chaos_sample, chaos_grid, "numpy", fast_config)
        ckpt = tmp_path / "sweep.ckpt.npz"

        # First run: block 2 keeps failing until its budget dies (draw 2 in
        # the first wave, draw 4 on its lone retry), the other blocks land.
        doomed = FaultSpec(site="data.block", kind="nan", at=(2, 4))
        config = self._config(fast_config, ckpt, max_retries=1)
        with inject_faults(FaultInjector([doomed], seed=chaos_seed)):
            with pytest.raises(RetryBudgetExceeded):
                resilient_cv_scores(
                    x, y, chaos_grid, backend="numpy", config=config
                )
        assert ckpt.exists(), "completed blocks must survive the crash"

        # Second run resumes the surviving blocks and finishes fault-free.
        config = self._config(fast_config, ckpt, max_retries=1, keep=False)
        scores, report = resilient_cv_scores(
            x, y, chaos_grid, backend="numpy", config=config
        )
        np.testing.assert_array_equal(scores, clean)
        assert report.blocks_resumed == report.blocks_total - 1
        assert not ckpt.exists(), "checkpoint is discarded after success"

    def test_resumed_blocks_are_not_recomputed(
        self, chaos_sample, chaos_grid, fast_config, tmp_path, monkeypatch
    ) -> None:
        x, y = chaos_sample
        ckpt = tmp_path / "sweep.ckpt.npz"
        config = self._config(fast_config, ckpt, max_retries=0)
        scores, report = resilient_cv_scores(
            x, y, chaos_grid, backend="numpy", config=config
        )
        assert report.blocks_total > 1

        # the engine imports the block kernel lazily from repro.core.fastgrid
        import repro.core.fastgrid as fastgrid_mod

        calls = {"n": 0}
        real = fastgrid_mod.fastgrid_block_sums

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(fastgrid_mod, "fastgrid_block_sums", counting)
        again, rep2 = resilient_cv_scores(
            x, y, chaos_grid, backend="numpy", config=config
        )
        assert calls["n"] == 0, "a full checkpoint must skip every block"
        assert rep2.blocks_resumed == rep2.blocks_total
        np.testing.assert_array_equal(again, scores)

    def test_sorted_path_resume_across_degradation_is_bit_for_bit(
        self, chaos_seed, fast_config, tmp_path
    ) -> None:
        """Blocks from three backends in one checkpoint, on the sorted path.

        The checkpoint fingerprint carries no backend and no path; the
        path follows from (n, k, kernel, dtype), which it does carry.  So
        blocks written by ``blocked-shm``, resumed by ``blocked`` and
        finished by ``numpy`` must fold to the clean ``numpy`` bits.
        """
        from repro.core.fastgrid import window_sum_path

        rng = np.random.default_rng(20170529)
        x = rng.uniform(0.0, 10.0, 600)
        y = np.sin(x) + rng.normal(0.0, 0.3, 600)
        grid = np.linspace(0.2, 3.0, 25)
        assert window_sum_path(x.shape[0], grid.shape[0], "epanechnikov") == (
            "sorted"
        )
        clean = _clean_scores((x, y), grid, "numpy", fast_config)
        ckpt = tmp_path / "sweep.ckpt.npz"
        config = dataclasses.replace(
            self._config(fast_config, ckpt, max_retries=1), flush_every=1
        )
        # Ten blocks of 64 rows.  blocked-shm lands blocks 0-2, then every
        # worker dies until its retry budget is spent; blocked resumes
        # those three, lands 3-5 and 7-9, and block 6 is corrupted on both
        # of its attempts; numpy resumes nine blocks and computes block 6.
        injector = FaultInjector(
            [
                FaultSpec(site="shm.worker", kind="crash", at=tuple(range(3, 20))),
                FaultSpec(site="data.block", kind="nan", at=(6, 10)),
            ],
            seed=chaos_seed,
        )
        with inject_faults(injector):
            scores, report = resilient_cv_scores(
                x, y, grid, backend="blocked-shm", config=config,
                backend_options={"workers": 2},
            )
        assert [a["backend"] for a in report.backend_attempts] == [
            "blocked-shm", "blocked", "numpy",
        ]
        assert report.backend_used == "numpy"
        assert report.blocks_resumed == 3 + 9
        np.testing.assert_array_equal(scores, clean)
        assert scores.tobytes() == clean.tobytes()

    def test_resume_with_wrong_data_refuses(
        self, chaos_sample, chaos_grid, fast_config, tmp_path
    ) -> None:
        x, y = chaos_sample
        ckpt = tmp_path / "sweep.ckpt.npz"
        config = self._config(fast_config, ckpt, max_retries=0)
        resilient_cv_scores(x, y, chaos_grid, backend="numpy", config=config)
        with pytest.raises(CheckpointError, match="different sweep"):
            resilient_cv_scores(
                x, y + 1.0, chaos_grid, backend="numpy", config=config
            )


class TestSelectorEndToEnd:
    def test_grid_selector_bandwidth_survives_chaos(
        self, chaos_sample, chaos_seed, fast_config
    ) -> None:
        from repro import select_bandwidth

        x, y = chaos_sample
        baseline = select_bandwidth(
            x, y, method="grid", backend="multicore", resilience=fast_config
        )
        assert baseline.resilience is not None and baseline.resilience.clean

        storm = FaultInjector(
            [
                FaultSpec(site="pool.worker", kind="crash", at=(2,)),
                FaultSpec(site="data.block", kind="nan", at=(7,)),
            ],
            seed=chaos_seed,
        )
        with inject_faults(storm):
            chaotic = select_bandwidth(
                x, y, method="grid", backend="multicore", resilience=fast_config
            )
        assert chaotic.bandwidth == baseline.bandwidth
        np.testing.assert_array_equal(chaotic.scores, baseline.scores)
        assert chaotic.resilience.retries >= 1

    def test_numeric_selector_survives_worker_crashes(
        self, chaos_sample, chaos_seed, fast_config
    ) -> None:
        from repro import select_bandwidth

        x, y = chaos_sample
        baseline = select_bandwidth(
            x, y, method="numeric", workers=2, resilience=fast_config
        )
        storm = FaultInjector(
            [FaultSpec(site="pool.worker", kind="crash", at=(1, 4))],
            seed=chaos_seed,
        )
        with inject_faults(storm):
            chaotic = select_bandwidth(
                x, y, method="numeric", workers=2, resilience=fast_config
            )
        assert chaotic.bandwidth == baseline.bandwidth
        assert chaotic.resilience.retries >= 1


class TestPartition:
    def test_block_rows_is_a_pure_function_of_n(self) -> None:
        assert default_block_rows(200) == default_block_rows(200)
        assert default_block_rows(100) == 64
        n = 100_000
        rows = default_block_rows(n)
        assert -(-n // rows) <= 16
