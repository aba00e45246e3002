"""A fault that outlives the retry budget.

The engine retries a faulted sweep as a fresh call of the same backend.
When the fault outlasts ``max_retries``, the typed
``REPRO_RETRY_EXHAUSTED`` error names the backend; with fallback on it
is a structural fault, so ``blocked-shm`` degrades to ``numpy`` and the
curve is the clean ``numpy`` curve, byte for byte.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.exceptions import DataCorruptionError, WorkerCrashError, error_code
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import ResilienceConfig, resilient_cv_scores
from repro.resilience.policy import RetryBudgetExceeded

N = 256
MAX_RETRIES = 2


@pytest.fixture()
def sample() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(41)
    x = np.sort(rng.uniform(0.0, 10.0, N))
    y = np.sin(x) + rng.normal(0.0, 0.2, N)
    grid = np.linspace(0.2, 3.0, 9)
    return x, y, grid


@pytest.fixture(autouse=True)
def no_shm_litter():
    yield
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro-shm-*") == []


def _config(*, fallback: bool) -> ResilienceConfig:
    return ResilienceConfig(
        max_retries=MAX_RETRIES,
        fallback=fallback,
        sleep=lambda _s: None,
    )


def _clean_numpy(sample) -> np.ndarray:
    x, y, grid = sample
    scores, report = resilient_cv_scores(
        x, y, grid, "epanechnikov", config=_config(fallback=False)
    )
    assert report.clean
    return scores


#: Every curve the numpy sweep returns is corrupt: 1 + MAX_RETRIES calls.
PERSISTENT_CORRUPTION = FaultSpec(site="data.block", kind="nan", rate=1.0)

#: Every pool block of every blocked-shm call crashes its worker.
PERSISTENT_CRASH = FaultSpec(site="pool.worker", kind="crash", rate=1.0)


def test_exhausted_sweep_surfaces_typed_error_naming_the_backend(sample):
    x, y, grid = sample
    with inject_faults(FaultInjector([PERSISTENT_CORRUPTION], seed=0)) as plan:
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            resilient_cv_scores(
                x, y, grid, "epanechnikov", config=_config(fallback=False)
            )
    exc = excinfo.value
    assert error_code(exc) == "REPRO_RETRY_EXHAUSTED"
    assert "backend 'numpy'" in str(exc)
    assert f"{1 + MAX_RETRIES} time(s)" in str(exc)
    assert isinstance(exc.__cause__, DataCorruptionError)
    assert len(plan.log) == 1 + MAX_RETRIES


def test_exhaustion_on_the_terminal_backend_propagates(sample):
    # numpy ends every chain: with fallback on there is nowhere to go.
    x, y, grid = sample
    with inject_faults(FaultInjector([PERSISTENT_CORRUPTION], seed=0)):
        with pytest.raises(RetryBudgetExceeded, match="backend 'numpy'"):
            resilient_cv_scores(
                x, y, grid, "epanechnikov", config=_config(fallback=True)
            )


def test_exhausted_blocked_shm_without_fallback_names_it(sample):
    x, y, grid = sample
    with inject_faults(FaultInjector([PERSISTENT_CRASH], seed=0)):
        with pytest.raises(RetryBudgetExceeded, match="backend 'blocked-shm'") as info:
            resilient_cv_scores(
                x, y, grid, "epanechnikov", backend="blocked-shm",
                config=_config(fallback=False),
                backend_options={"workers": 2},
            )
    assert isinstance(info.value.__cause__, WorkerCrashError)


def test_exhausted_blocked_shm_degrades_to_the_clean_numpy_curve(sample):
    x, y, grid = sample
    clean = _clean_numpy(sample)
    with inject_faults(FaultInjector([PERSISTENT_CRASH], seed=0)):
        scores, report = resilient_cv_scores(
            x, y, grid, "epanechnikov", backend="blocked-shm",
            config=_config(fallback=True),
            backend_options={"workers": 2},
        )
    assert scores.tobytes() == clean.tobytes()
    assert report.backend_used == "numpy"
    assert report.degraded
    assert report.backend_attempts == [
        {"backend": "blocked-shm", "outcome": "REPRO_RETRY_EXHAUSTED"},
        {"backend": "numpy", "outcome": "ok"},
    ]
    assert report.retries == MAX_RETRIES
    assert report.blocks_total == 1


def test_one_more_retry_is_enough_when_the_fault_is_transient(sample):
    x, y, grid = sample
    transient = FaultSpec(site="data.block", kind="nan", at=tuple(range(MAX_RETRIES)))
    with inject_faults(FaultInjector([transient], seed=0)):
        scores, report = resilient_cv_scores(
            x, y, grid, "epanechnikov", config=_config(fallback=False)
        )
    assert report.retries == MAX_RETRIES
    assert scores.tobytes() == _clean_numpy(sample).tobytes()


def test_a_retry_is_a_fresh_blocked_shm_call(sample, monkeypatch):
    import repro.core.backends as backends_mod

    calls: list[int] = []
    real = backends_mod.cv_scores_blocked_shm

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(backends_mod, "cv_scores_blocked_shm", counting)
    x, y, grid = sample
    crash_once = FaultSpec(site="pool.worker", kind="crash", at=(0,))
    with inject_faults(FaultInjector([crash_once], seed=0)):
        scores, report = resilient_cv_scores(
            x, y, grid, "epanechnikov", backend="blocked-shm",
            config=_config(fallback=False),
            backend_options={"workers": 2},
        )
    assert len(calls) == 2
    assert report.retries == 1 and report.backend_used == "blocked-shm"
    assert scores.tobytes() == _clean_numpy(sample).tobytes()
