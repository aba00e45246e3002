"""The retry loop: bounded retries with a fixed exponential backoff.

The backoff before retry ``a`` (1-based) is ``min(2 s, 0.05 s·2^(a−1))``
— 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0 ... seconds.  Every retry runs
in the parent process, one sweep at a time, so there is no concurrent
retry storm to spread out and the schedule needs no jitter: a chaos run
sleeps the same schedule every time.  The actual ``sleep`` is injectable
so tests run in microseconds.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

from repro.exceptions import ReproError, error_code

__all__ = ["RetryBudgetExceeded", "backoff_delay", "run_with_retry"]

T = TypeVar("T")

#: Delay before the first retry, and the ceiling on any single delay.
BASE_DELAY_SECONDS = 0.05
MAX_DELAY_SECONDS = 2.0


class RetryBudgetExceeded(ReproError):
    """Every retry of a work unit failed; carries the last error chained."""

    code = "REPRO_RETRY_EXHAUSTED"


def backoff_delay(attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based)."""
    return min(MAX_DELAY_SECONDS, BASE_DELAY_SECONDS * 2.0 ** (attempt - 1))


def run_with_retry(
    func: Callable[[], T],
    *,
    max_retries: int,
    retryable: Callable[[BaseException], bool],
    on_retry: Callable[[BaseException, int], None] | None = None,
    sleep: Callable[[float], None] | None = None,
    label: str = "work unit",
) -> T:
    """Call ``func`` until it succeeds or ``max_retries`` retries are spent.

    ``retryable`` classifies exceptions (typically by their ``REPRO_*``
    code); non-retryable errors propagate immediately.  ``on_retry`` is
    invoked before each backoff with the failure and the 1-based attempt
    number — the resilient engine uses it to record fault events and to
    rebuild a crashed pool.  When the budget is exhausted the last error
    is re-raised wrapped in :class:`RetryBudgetExceeded` so callers (and
    the degrade chain) can distinguish "kept failing" from "failed once".
    """
    do_sleep = sleep if sleep is not None else time.sleep
    attempt = 0
    while True:
        try:
            return func()
        except Exception as exc:  # classified and re-raised below
            if not retryable(exc):
                raise
            attempt += 1
            if attempt > max_retries:
                code = error_code(exc) or type(exc).__name__
                raise RetryBudgetExceeded(
                    f"{label} failed {attempt} time(s); last error {code}: {exc}"
                ) from exc
            if on_retry is not None:
                on_retry(exc, attempt)
            do_sleep(backoff_delay(attempt))
