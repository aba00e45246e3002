"""Unit tests for the backoff schedule and the retry loop."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ValidationError,
    WorkerCrashError,
    error_code,
)
from repro.resilience.degrade import is_retryable
from repro.resilience.engine import ResilienceConfig
from repro.resilience.policy import (
    RetryBudgetExceeded,
    backoff_delay,
    run_with_retry,
)


class TestBackoff:
    def test_fixed_schedule_doubles_and_caps_at_two_seconds(self) -> None:
        assert [backoff_delay(a) for a in range(1, 9)] == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        )

    def test_config_rejects_negative_retries(self) -> None:
        assert ResilienceConfig().max_retries == 2
        with pytest.raises(ValidationError):
            ResilienceConfig(max_retries=-1)


_CONFIG = ResilienceConfig(max_retries=5, fallback=False)


class TestResilienceArgument:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [(True, ResilienceConfig()), (False, None), (None, None),
         (_CONFIG, _CONFIG)],
        ids=["true", "false", "none", "config"],
    )
    def test_coerce(self, value, expected) -> None:
        assert ResilienceConfig.coerce(value) == expected

    @pytest.mark.parametrize("value", ["yes", 1, {"max_retries": 3}])
    def test_coerce_rejects_anything_else(self, value) -> None:
        with pytest.raises(ValidationError):
            ResilienceConfig.coerce(value)


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
            max_retries=3,
            retryable=is_retryable,
            sleep=slept.append,
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert slept == pytest.approx([0.05, 0.1])

    def test_budget_exhaustion_wraps_last_error(self) -> None:
        work, _ = self._flaky(failures=10)
        with pytest.raises(RetryBudgetExceeded) as info:
            run_with_retry(
                work,
                max_retries=2,
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
                max_retries=5,
                retryable=is_retryable,
                sleep=lambda _s: None,
            )
        assert calls["n"] == 1

    def test_on_retry_sees_each_failure(self) -> None:
        work, _ = self._flaky(failures=2)
        seen: list[int] = []
        run_with_retry(
            work,
            max_retries=3,
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
                max_retries=0,
                retryable=is_retryable,
                sleep=lambda _s: None,
            )
        assert calls["n"] == 1
