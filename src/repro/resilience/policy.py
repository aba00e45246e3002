"""Retry policy: bounded retries, exponential backoff, deterministic jitter.

The policy is *pure data plus arithmetic*: given an attempt number it
produces a delay, and given a seed the jitter sequence is exactly
reproducible — chaos tests can assert not only that a run survived its
faults but that it slept the same schedule both times.  The actual
``sleep`` is injectable so tests run in microseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro.exceptions import ReproError, ValidationError, error_code
from repro.utils.rng import derive_rng

__all__ = ["RetryPolicy", "RetryBudgetExceeded", "run_with_retry"]

T = TypeVar("T")


class RetryBudgetExceeded(ReproError):
    """Every retry of a work unit failed; carries the last error chained."""

    code = "REPRO_RETRY_EXHAUSTED"


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient faults.

    Parameters
    ----------
    max_retries:
        Retries *after* the first attempt (0 = fail fast).
    base_delay:
        Delay before the first retry, in seconds.
    multiplier:
        Exponential growth factor between consecutive retries.
    max_delay:
        Ceiling on any single delay.
    jitter:
        Fractional jitter: the delay is scaled by ``1 + jitter·u`` with
        ``u ~ U[0, 1)`` from a generator seeded by ``seed`` — decorrelates
        retry storms across workers while staying replayable.
    seed:
        Seed of the jitter sequence.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise ValidationError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValidationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.jitter < 0.0:
            raise ValidationError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered from ``rng``."""
        if attempt < 1:
            raise ValidationError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        scale = 1.0 + self.jitter * float(rng.random()) if self.jitter > 0.0 else 1.0
        return raw * scale

    def delays(self) -> list[float]:
        """The full (deterministic) backoff schedule for one work unit."""
        rng = self.jitter_rng()
        return [self.delay(a, rng) for a in range(1, self.max_retries + 1)]

    def jitter_rng(self) -> np.random.Generator:
        """A fresh generator positioned at the start of the jitter sequence."""
        # Bit-compatible with the pre-consolidation SeedSequence([seed,
        # 0x5E7B]): recorded backoff schedules replay unchanged.
        return derive_rng(self.seed, 0x5E7B)


@dataclass
class _RetryState:
    """Mutable bookkeeping shared by one :func:`run_with_retry` call."""

    attempts: int = 0
    retries: int = 0
    slept: list[float] = field(default_factory=list)


def run_with_retry(
    func: Callable[[], T],
    *,
    policy: RetryPolicy,
    retryable: Callable[[BaseException], bool],
    on_retry: Callable[[BaseException, int], None] | None = None,
    sleep: Callable[[float], None] | None = None,
    rng: np.random.Generator | None = None,
    label: str = "work unit",
) -> T:
    """Call ``func`` until it succeeds or the retry budget is spent.

    ``retryable`` classifies exceptions (typically by their ``REPRO_*``
    code); non-retryable errors propagate immediately.  ``on_retry`` is
    invoked before each backoff with the failure and the 1-based attempt
    number — the resilient engine uses it to record fault events and to
    rebuild a crashed pool.  When the budget is exhausted the last error
    is re-raised wrapped in :class:`RetryBudgetExceeded` so callers (and
    the degrade chain) can distinguish "kept failing" from "failed once".
    """
    do_sleep = sleep if sleep is not None else time.sleep
    jitter_rng = rng if rng is not None else policy.jitter_rng()
    attempt = 0
    while True:
        try:
            return func()
        except Exception as exc:  # classified and re-raised below
            if not retryable(exc):
                raise
            attempt += 1
            if attempt > policy.max_retries:
                code = error_code(exc) or type(exc).__name__
                raise RetryBudgetExceeded(
                    f"{label} failed {attempt} time(s); last error {code}: {exc}"
                ) from exc
            if on_retry is not None:
                on_retry(exc, attempt)
            pause = policy.delay(attempt, jitter_rng)
            if pause > 0.0:
                do_sleep(pause)

