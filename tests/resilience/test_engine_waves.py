"""Wave re-dispatch when one block fails *every* retry.

The degrade chain is disabled here on purpose: with ``fallback=False``
the engine must surface the typed ``REPRO_RETRY_EXHAUSTED`` error
naming the exact block, and the checkpoint must hold every *completed*
block while never committing a partial result for the failed one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import error_code
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.resilience.engine import ResilienceConfig, resilient_cv_scores
from repro.resilience.policy import RetryBudgetExceeded, RetryPolicy

N = 256
BLOCK_ROWS = 64  # 4 blocks: rows [0:64) [64:128) [128:192) [192:256)


@pytest.fixture()
def sample() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(41)
    x = np.sort(rng.uniform(0.0, 10.0, N))
    y = np.sin(x) + rng.normal(0.0, 0.2, N)
    grid = np.linspace(0.2, 3.0, 9)
    return x, y, grid


def _config(
    tmp_path, max_retries: int = 2, name: str = "sweep.ckpt.npz"
) -> ResilienceConfig:
    return ResilienceConfig(
        policy=RetryPolicy(max_retries=max_retries, base_delay=0.0, max_delay=0.0),
        fallback=False,
        block_rows=BLOCK_ROWS,
        checkpoint=tmp_path / name,
        keep_checkpoint=True,
        sleep=lambda _s: None,
    )


def _clean_scores(sample, tmp_path) -> np.ndarray:
    x, y, grid = sample
    scores, report = resilient_cv_scores(
        x, y, grid, "epanechnikov", config=_config(tmp_path, name="clean.npz")
    )
    assert report.clean
    return scores


#: Block [64:128) is site event 1 in wave 0 and the sole event of every
#: retry wave after it, so these indices fail it on every attempt.
PERSISTENT_BLOCK_1 = FaultSpec(
    site="data.block", kind="nan", at=(1, 4, 5, 6, 7, 8, 9, 10)
)


def test_exhausted_block_surfaces_typed_error_with_block_id(sample, tmp_path):
    x, y, grid = sample
    with inject_faults(FaultInjector([PERSISTENT_BLOCK_1], seed=0)):
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            resilient_cv_scores(
                x, y, grid, "epanechnikov", config=_config(tmp_path)
            )
    exc = excinfo.value
    assert error_code(exc) == "REPRO_RETRY_EXHAUSTED"
    assert "numpy:rows[64:128)" in str(exc)
    assert "3 time(s)" in str(exc)  # 1 initial + max_retries attempts


def test_no_partial_fold_committed_for_the_failed_block(sample, tmp_path):
    x, y, grid = sample
    config = _config(tmp_path)
    with inject_faults(FaultInjector([PERSISTENT_BLOCK_1], seed=0)):
        with pytest.raises(RetryBudgetExceeded):
            resilient_cv_scores(x, y, grid, "epanechnikov", config=config)
    ckpt = SweepCheckpoint.open(
        config.checkpoint,
        fingerprint=sweep_fingerprint(x, y, grid, "epanechnikov", "float64", BLOCK_ROWS),
        n=N,
        k=grid.shape[0],
        block_rows=BLOCK_ROWS,
    )
    assert ckpt.has_block(0)
    assert ckpt.has_block(128)
    assert ckpt.has_block(192)
    assert not ckpt.has_block(64), (
        "a block that failed every retry must never commit a partial sum"
    )


def test_resume_after_exhaustion_recomputes_only_the_failed_block(
    sample, tmp_path
):
    x, y, grid = sample
    config = _config(tmp_path)
    with inject_faults(FaultInjector([PERSISTENT_BLOCK_1], seed=0)):
        with pytest.raises(RetryBudgetExceeded):
            resilient_cv_scores(x, y, grid, "epanechnikov", config=config)
    # The fault cleared (a healthy re-run): resume from the checkpoint.
    scores, report = resilient_cv_scores(
        x, y, grid, "epanechnikov", config=config
    )
    assert report.blocks_resumed == 3
    assert np.array_equal(scores, _clean_scores(sample, tmp_path))


def test_one_more_retry_is_enough_when_the_fault_is_transient(sample, tmp_path):
    x, y, grid = sample
    transient = FaultSpec(site="data.block", kind="nan", at=(1,))
    config = _config(tmp_path, max_retries=2)
    with inject_faults(FaultInjector([transient], seed=0)):
        scores, report = resilient_cv_scores(
            x, y, grid, "epanechnikov", config=config
        )
    assert report.retries == 1
    assert np.array_equal(scores, _clean_scores(sample, tmp_path))
