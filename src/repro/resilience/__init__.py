"""Resilient execution layer: fault injection, retry, checkpoint, degrade.

The paper's pipeline is embarrassingly parallel per observation, which
makes it naturally fault-tolerant: any lost row block can be recomputed,
checkpointed, or shifted to a slower backend without changing the CV sums
at all.  This package exploits that:

* :mod:`~repro.resilience.faults` — deterministic, seeded fault injection
  (worker crashes/timeouts, simulated ``cudaMalloc``/kernel-launch
  failures, NaN block corruption) keyed by seed + site so failures replay
  exactly;
* :mod:`~repro.resilience.policy` — bounded retries with exponential
  backoff and deterministic jitter, plus per-block deadlines;
* :mod:`~repro.resilience.checkpoint` — resumable per-row-block partial
  sums for the O(n² log n) sweep (``resume=`` on the public selectors);
* :mod:`~repro.resilience.degrade` — the backend fallback chain
  ``gpusim → gpusim-tiled → numpy`` driven by stable
  ``REPRO_*`` error codes, reported in a :class:`ResilienceReport`;
* :mod:`~repro.resilience.engine` — the resilient execution engine that
  the public selectors call when ``resilience=`` is enabled.

This ``__init__`` stays light on purpose: :mod:`repro.parallel.pool`
imports the fault hooks at module load, so the engine (which imports the
pool back) is resolved lazily via PEP 562.
"""

from __future__ import annotations

from typing import Any

from repro.resilience.checkpoint import SweepCheckpoint, sweep_fingerprint
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
    RetryPolicy,
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
    "RetryPolicy",
    "SweepCheckpoint",
    "active_injector",
    "fallback_chain",
    "inject_faults",
    "is_degradable",
    "is_retryable",
    "resilient_cv_scores",
    "run_with_retry",
    "sweep_fingerprint",
]

#: Engine names resolved lazily (the engine imports the worker pool,
#: which imports the fault hooks from this package at module load).
_ENGINE_EXPORTS = frozenset(
    {"ResilientEngine", "ResilienceConfig", "resilient_cv_scores", "default_block_rows"}
)


def __getattr__(name: str) -> Any:
    if name in _ENGINE_EXPORTS:
        from repro.resilience import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
