"""Resilient execution layer: fault injection, retry, degrade.

The paper's pipeline is embarrassingly parallel per observation, and
since a whole sweep takes seconds, a failed sweep is simply run again or
shifted to a slower backend.  This package does that:

* :mod:`~repro.resilience.faults` — deterministic, seeded fault injection
  (worker crashes/timeouts, simulated ``cudaMalloc``/kernel-launch
  failures, NaN block corruption) keyed by seed + site so failures replay
  exactly;
* :mod:`~repro.resilience.policy` — bounded retries with a fixed
  exponential backoff;
* :mod:`~repro.resilience.degrade` — the backend fallback chain
  ``gpusim → gpusim-tiled → numpy`` driven by stable
  ``REPRO_*`` error codes, reported in a :class:`ResilienceReport`;
* :mod:`~repro.resilience.engine` — the resilient execution engine that
  the public selectors call when ``resilience=`` is enabled; it runs the
  registered backends whole, so a resilient curve is the backend's own.
  Every CV curve of a grid or bagged selection (each refinement round,
  each subsample) reaches it through the one curve function of
  :mod:`repro.core.selectors`, so there is one retry loop, one fallback
  chain and one finiteness check for all of them.

This ``__init__`` stays light on purpose: :mod:`repro.parallel.pool`
imports the fault hooks at module load, so the engine (which imports the
pool back) is resolved lazily via PEP 562.
"""

from __future__ import annotations

from typing import Any

from repro.resilience.degrade import (
    DEFAULT_FALLBACK_CHAIN,
    DEGRADABLE_CODES,
    RETRYABLE_CODES,
    ResilienceReport,
    fallback_chain,
    is_degradable,
    is_retryable,
)
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultSpec,
    active_injector,
    inject_faults,
)
from repro.resilience.policy import (
    RetryBudgetExceeded,
    run_with_retry,
)

__all__ = [
    "DEFAULT_FALLBACK_CHAIN",
    "DEGRADABLE_CODES",
    "RETRYABLE_CODES",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "ResilienceConfig",
    "ResilienceReport",
    "ResilientEngine",
    "RetryBudgetExceeded",
    "active_injector",
    "fallback_chain",
    "inject_faults",
    "is_degradable",
    "is_retryable",
    "resilient_cv_scores",
    "run_with_retry",
]

#: Engine names resolved lazily (the engine imports the worker pool,
#: which imports the fault hooks from this package at module load).
_ENGINE_EXPORTS = frozenset(
    {"ResilientEngine", "ResilienceConfig", "resilient_cv_scores"}
)


def __getattr__(name: str) -> Any:
    if name in _ENGINE_EXPORTS:
        from repro.resilience import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
