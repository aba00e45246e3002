"""The resilient execution engine for the CV grid search.

The engine wraps the registered grid backends in the resilience stack.
For one sweep it walks the backend's
:func:`~repro.resilience.degrade.fallback_chain` and calls each
candidate's registered backend *whole*:

1. **retry** — transient faults (worker crash, timeout, kernel-launch
   failure, corrupt scores) re-run the candidate's sweep, up to
   ``max_retries`` times with the fixed backoff of
   :func:`~repro.resilience.policy.backoff_delay`; a ``blocked-shm``
   retry is a fresh call with its own pool and segments;
2. **degrade** — structural faults (device OOM, constant-memory
   exhaustion, a vanished shared-memory segment, a spent retry budget)
   move to the next candidate on the chain;
3. **verify** — every curve passes a finiteness check, so NaN/Inf
   corruption is retried instead of silently poisoning the argmin.

A resilient curve is therefore the backend's own bits: the curve a plain
call of the backend that finished would return.  ``blocked-shm → numpy``
degradation is byte-exact, because both fold the same per-observation
rows in the same strict order at any partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np

from repro.exceptions import DataCorruptionError, ValidationError, error_code
from repro.kernels import Kernel, get_kernel
from repro.obs.tracer import current_tracer
from repro.parallel.pool import WorkerPool
from repro.utils.validation import check_paired_samples, ensure_bandwidths
from repro.resilience import faults
from repro.resilience.degrade import (
    ResilienceReport,
    fallback_chain,
    is_degradable,
    is_retryable,
)
from repro.resilience.policy import run_with_retry

__all__ = [
    "ResilienceConfig",
    "ResilientEngine",
    "resilient_cv_scores",
]

T = TypeVar("T")

#: Codes after which a pool must be reforked before retrying.
_POOL_FATAL_CODES = frozenset({"REPRO_WORKER_CRASH", "REPRO_BLOCK_TIMEOUT"})


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning for one resilient selection.

    Parameters
    ----------
    max_retries:
        Retries per sweep *after* its first attempt (0 = fail fast).
    fallback:
        Walk the backend degradation chain on structural faults; when
        False the requested backend is the only one tried.
    sleep:
        Injectable sleeper for the backoff (tests pass a no-op).
    """

    max_retries: int = 2
    fallback: bool = True
    sleep: Callable[[float], None] | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @classmethod
    def coerce(
        cls, value: "ResilienceConfig | bool | None"
    ) -> "ResilienceConfig | None":
        """Normalise the public ``resilience=`` argument.

        ``True`` means defaults; ``None``/``False`` means disabled.
        """
        if isinstance(value, cls):
            return value
        if value is True:
            return cls()
        if value is None or value is False:
            return None
        raise ValidationError(
            f"resilience must be a ResilienceConfig, True, or None; "
            f"got {value!r}"
        )


class ResilientEngine:
    """Drives one (or more) grid sweeps under the resilience stack.

    One engine accumulates one :class:`ResilienceReport` across every
    sweep it runs — a selector with refinement rounds reuses the engine so
    the report covers the whole selection.
    """

    def __init__(self, config: ResilienceConfig | None = None):
        self.config = config if config is not None else ResilienceConfig()
        self.report = ResilienceReport()

    def cv_scores(
        self,
        x: np.ndarray,
        y: np.ndarray,
        bandwidths: np.ndarray,
        kernel: str | Kernel,
        *,
        backend: str = "numpy",
        backend_options: dict[str, Any] | None = None,
    ) -> np.ndarray:
        """CV scores for the grid, surviving whatever faults it can.

        Walks the fallback chain from ``backend``, calling each
        candidate's registered backend with the same ``backend_options``
        and retrying it up to ``max_retries`` times.  Raises only when
        every eligible backend failed structurally or a fault was not
        absorbable (validation errors, retry budget exhausted on the
        terminal backend).
        """
        kern = get_kernel(kernel)
        x, y = check_paired_samples(x, y)
        grid = ensure_bandwidths(bandwidths)
        options = dict(backend_options or {})
        if not self.report.backend_requested:
            self.report.backend_requested = backend
        self.report.blocks_total += 1
        chain = fallback_chain(backend) if self.config.fallback else (backend,)
        tracer = current_tracer()

        with tracer.span(
            "resilient-sweep",
            backend=backend,
            fallback=self.config.fallback,
            chain=len(chain),
        ):
            last_exc: BaseException | None = None
            for position, candidate in enumerate(chain):
                try:
                    with tracer.span(
                        "candidate", backend=candidate, position=position
                    ):
                        scores = self._whole_call(
                            candidate, x, y, grid, kern, options
                        )
                except Exception as exc:
                    self.report.record_attempt(
                        candidate, error_code(exc) or type(exc).__name__
                    )
                    self.report.record_fault(f"backend:{candidate}", exc)
                    if is_degradable(exc) and position < len(chain) - 1:
                        tracer.counter("resilience.degraded")
                        last_exc = exc
                        continue
                    raise
                self.report.record_attempt(candidate, "ok")
                self.report.backend_used = candidate
                return scores
        raise last_exc if last_exc is not None else AssertionError("empty chain")

    def _whole_call(
        self,
        candidate: str,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
    ) -> np.ndarray:
        """One candidate's registered backend, whole, under retry."""
        from repro.core.backends import get_backend

        backend_fn = get_backend(candidate)

        def attempt() -> np.ndarray:
            raw = np.asarray(
                backend_fn(x, y, grid, kern, **options), dtype=np.float64
            )
            checked = faults.corrupt("data.block", raw, f"{candidate}:scores")
            if not np.all(np.isfinite(checked)):
                raise DataCorruptionError(
                    f"non-finite CV scores from backend {candidate!r}"
                )
            return checked

        return self.retry(
            attempt, site=f"{candidate}:sweep", label=f"backend {candidate!r}"
        )

    def retry(
        self,
        attempt: Callable[[], T],
        *,
        site: str,
        label: str,
        pool: WorkerPool | None = None,
    ) -> T:
        """``attempt()`` under the retry policy, each fault recorded at ``site``.

        The one retry owner of sweeps and of the parallel objective: a
        crashed or hung worker first has ``pool`` rebuilt, and a spent
        budget raises :class:`~repro.resilience.policy.RetryBudgetExceeded`.
        """

        def on_retry(exc: BaseException, attempt_no: int) -> None:
            self.report.record_fault(site, exc)
            self.report.retries += 1
            current_tracer().counter("resilience.retries")
            if pool is not None and error_code(exc) in _POOL_FATAL_CODES:
                pool.rebuild()
                self.report.pool_rebuilds += 1

        return run_with_retry(
            attempt,
            max_retries=self.config.max_retries,
            retryable=is_retryable,
            on_retry=on_retry,
            sleep=self._sleep,
            label=label,
        )

    def _sleep(self, seconds: float) -> None:
        self.report.sleeps.append(float(seconds))
        sleeper = self.config.sleep if self.config.sleep is not None else time.sleep
        sleeper(seconds)


def resilient_cv_scores(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    backend: str = "numpy",
    config: ResilienceConfig | None = None,
    backend_options: dict[str, Any] | None = None,
) -> tuple[np.ndarray, ResilienceReport]:
    """One-shot resilient sweep; returns ``(scores, report)``."""
    engine = ResilientEngine(config)
    scores = engine.cv_scores(
        x, y, bandwidths, kernel, backend=backend, backend_options=backend_options
    )
    return scores, engine.report
