"""Unit tests for the retry policy and the retry loop."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ValidationError,
    WorkerCrashError,
    error_code,
)
from repro.resilience.degrade import is_retryable
from repro.resilience.policy import (
    RetryBudgetExceeded,
    RetryPolicy,
    run_with_retry,
)


class TestPolicy:
    def test_defaults_valid(self) -> None:
        policy = RetryPolicy()
        assert policy.max_retries == 2

    def test_validation(self) -> None:
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(multiplier=0.5)

    def test_delays_exponential_and_capped(self) -> None:
        policy = RetryPolicy(
            max_retries=5, base_delay=0.1, multiplier=2.0, max_delay=0.35, jitter=0.0
        )
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.35, 0.35, 0.35])

    def test_jitter_is_deterministic(self) -> None:
        policy = RetryPolicy(max_retries=4, jitter=0.5, seed=3)
        assert policy.delays() == policy.delays()

    def test_jitter_seed_changes_schedule(self) -> None:
        a = RetryPolicy(max_retries=4, jitter=0.5, seed=3).delays()
        b = RetryPolicy(max_retries=4, jitter=0.5, seed=4).delays()
        assert a != b



class TestRunWithRetry:
    def _flaky(self, failures: int):
        calls = {"n": 0}

        def work() -> str:
            calls["n"] += 1
            if calls["n"] <= failures:
                raise WorkerCrashError(f"boom {calls['n']}")
            return "ok"

        return work, calls

    def test_succeeds_after_transients(self) -> None:
        work, calls = self._flaky(failures=2)
        slept: list[float] = []
        result = run_with_retry(
            work,
            policy=RetryPolicy(max_retries=3, base_delay=0.01, jitter=0.0),
            retryable=is_retryable,
            sleep=slept.append,
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert len(slept) == 2

    def test_budget_exhaustion_wraps_last_error(self) -> None:
        work, _ = self._flaky(failures=10)
        with pytest.raises(RetryBudgetExceeded) as info:
            run_with_retry(
                work,
                policy=RetryPolicy(max_retries=2, base_delay=0.0),
                retryable=is_retryable,
                sleep=lambda _s: None,
            )
        assert error_code(info.value) == "REPRO_RETRY_EXHAUSTED"
        assert isinstance(info.value.__cause__, WorkerCrashError)

    def test_non_retryable_propagates_immediately(self) -> None:
        calls = {"n": 0}

        def work() -> None:
            calls["n"] += 1
            raise ValidationError("bad input")

        with pytest.raises(ValidationError):
            run_with_retry(
                work,
                policy=RetryPolicy(max_retries=5, base_delay=0.0),
                retryable=is_retryable,
                sleep=lambda _s: None,
            )
        assert calls["n"] == 1

    def test_on_retry_sees_each_failure(self) -> None:
        work, _ = self._flaky(failures=2)
        seen: list[int] = []
        run_with_retry(
            work,
            policy=RetryPolicy(max_retries=3, base_delay=0.0),
            retryable=is_retryable,
            on_retry=lambda exc, attempt: seen.append(attempt),
            sleep=lambda _s: None,
        )
        assert seen == [1, 2]

    def test_zero_retries_fails_fast(self) -> None:
        work, calls = self._flaky(failures=1)
        with pytest.raises(RetryBudgetExceeded):
            run_with_retry(
                work,
                policy=RetryPolicy(max_retries=0),
                retryable=is_retryable,
                sleep=lambda _s: None,
            )
        assert calls["n"] == 1
