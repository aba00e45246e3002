"""Graceful backend degradation and the structured resilience report.

The degradation order mirrors the paper's own hardware story read
backwards: the CUDA program is fastest but dies at the 4 GB wall
(n > 20,000, ``REPRO_DEVICE_OOM``); the tiled out-of-core variant
(§V future work, :mod:`repro.cuda_port.tiled`) trades kernel launches for
an O(t·n) footprint; and the sequential fast grid, whose row blocks fit
an explicit memory budget when one is given, always completes.  So::

    gpusim  →  gpusim-tiled  →  numpy (serial)

The parallel host executors sit on spurs that join at the terminal:
``blocked-shm`` degrades to ``numpy`` when its POSIX segments vanish
(``REPRO_SHM_SEGMENT``) or its workers keep dying, and ``distributed``
when the fleet is lost.  Both compute the same block partials as
``numpy``, so these fallbacks are bit-exact.

Decisions match on the stable ``REPRO_*`` error *codes* (see
:mod:`repro.exceptions`), not on class identity, so refactoring the
exception hierarchy cannot silently change fallback behaviour:

* **retryable** codes mark transient faults — retry the same backend
  (worker crash, block timeout, kernel-launch failure, corrupt block);
* **degradable** codes mark structural faults — no retry will help on
  this backend, move down the chain (device OOM, constant/shared memory
  exhaustion, bad launch configuration, unknown backend, retired pool);
* anything else (validation errors, degenerate data) is the caller's bug
  and propagates immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import error_code

__all__ = [
    "DEFAULT_FALLBACK_CHAIN",
    "RETRYABLE_CODES",
    "DEGRADABLE_CODES",
    "fallback_chain",
    "is_retryable",
    "is_degradable",
    "ResilienceReport",
]

#: Fast-but-fragile first, slow-but-sure last.
DEFAULT_FALLBACK_CHAIN: tuple[str, ...] = (
    "gpusim",
    "gpusim-tiled",
    "numpy",
)

#: Off-chain entry points that join the default chain at its terminal:
#: the shared-memory pool and the fleet compute the same block partials
#: as the serial sweep, so losing either degrades losslessly.
_CHAIN_SPURS: dict[str, tuple[str, ...]] = {
    "blocked-shm": ("blocked-shm", "numpy"),
    "distributed": ("distributed", "numpy"),
}

#: Transient faults: retry on the same backend.
RETRYABLE_CODES = frozenset(
    {
        "REPRO_WORKER_CRASH",
        "REPRO_BLOCK_TIMEOUT",
        "REPRO_KERNEL_EXEC",
        "REPRO_DATA_CORRUPT",
        "REPRO_DIST_UNREACHABLE",
        "REPRO_DIST_LEASE_EXPIRED",
        "REPRO_DIST_CHECKSUM",
        "REPRO_SERVE_TIMEOUT",
    }
)

#: Structural faults: retries cannot help, degrade to the next backend.
DEGRADABLE_CODES = frozenset(
    {
        "REPRO_DEVICE_OOM",
        "REPRO_CONST_MEM",
        "REPRO_SHARED_MEM",
        "REPRO_LAUNCH_CONFIG",
        "REPRO_DEVICE_STATE",
        "REPRO_BACKEND",
        "REPRO_POOL_STATE",
        "REPRO_SHM_SEGMENT",
        "REPRO_RETRY_EXHAUSTED",
        "REPRO_DIST_FLEET_LOST",
    }
)


def is_retryable(exc: BaseException) -> bool:
    """Whether ``exc`` marks a transient fault worth retrying in place."""
    return error_code(exc) in RETRYABLE_CODES


def is_degradable(exc: BaseException) -> bool:
    """Whether ``exc`` justifies falling back to the next backend."""
    return error_code(exc) in DEGRADABLE_CODES


def fallback_chain(backend: str) -> tuple[str, ...]:
    """The degradation sequence starting from ``backend``.

    A backend on the default chain degrades along its suffix; spur
    backends (``blocked-shm``, ``distributed``) join it at the terminal; any
    other backend (``python``, a user-registered one) falls straight back
    to the serial terminal, which cannot structurally fail.
    """
    if backend in _CHAIN_SPURS:
        return _CHAIN_SPURS[backend]
    if backend in DEFAULT_FALLBACK_CHAIN:
        idx = DEFAULT_FALLBACK_CHAIN.index(backend)
        return DEFAULT_FALLBACK_CHAIN[idx:]
    if backend == DEFAULT_FALLBACK_CHAIN[-1]:
        return (backend,)
    return (backend, DEFAULT_FALLBACK_CHAIN[-1])


@dataclass
class ResilienceReport:
    """What the resilient engine did to finish one selection.

    Attached to :attr:`repro.core.result.SelectionResult.resilience` so a
    caller can see, after the fact, every fault the run absorbed.
    """

    #: Requested backend and the one that finally produced the scores.
    backend_requested: str = ""
    backend_used: str = ""
    #: Every backend tried, in order, with its outcome ("ok" or a code).
    backend_attempts: list[dict[str, str]] = field(default_factory=list)
    #: Every fault absorbed: {"stage", "code", "error"} per event.
    faults: list[dict[str, str]] = field(default_factory=list)
    #: Total retry attempts across all blocks and backends.
    retries: int = 0
    #: Blocks recomputed after a fault (= failed block attempts).
    blocks_recomputed: int = 0
    #: Blocks replayed from a checkpoint instead of recomputed.
    blocks_resumed: int = 0
    #: Total row blocks in the sweep partition.
    blocks_total: int = 0
    #: Times a crashed/hung pool was torn down and reforked.
    pool_rebuilds: int = 0
    #: Checkpoint file in use, if any.
    checkpoint_path: str | None = None
    #: Backoff sleeps actually taken (seconds), in order.
    sleeps: list[float] = field(default_factory=list)

    # -- recording helpers (engine-internal) -------------------------------

    def record_fault(self, stage: str, exc: BaseException) -> None:
        """Append one absorbed fault."""
        self.faults.append(
            {
                "stage": stage,
                "code": error_code(exc) or type(exc).__name__,
                "error": str(exc),
            }
        )

    def record_attempt(self, backend: str, outcome: str) -> None:
        """Append one backend attempt ("ok" or the failing code)."""
        self.backend_attempts.append({"backend": backend, "outcome": outcome})

    @property
    def degraded(self) -> bool:
        """True when the scores came from a backend below the requested one."""
        return bool(self.backend_used) and self.backend_used != self.backend_requested

    @property
    def clean(self) -> bool:
        """True when the run saw no faults, retries, or degradation."""
        return not self.faults and not self.degraded and self.retries == 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot (for logs and bench artifacts)."""
        return {
            "backend_requested": self.backend_requested,
            "backend_used": self.backend_used,
            "backend_attempts": list(self.backend_attempts),
            "faults": list(self.faults),
            "retries": self.retries,
            "blocks_recomputed": self.blocks_recomputed,
            "blocks_resumed": self.blocks_resumed,
            "blocks_total": self.blocks_total,
            "pool_rebuilds": self.pool_rebuilds,
            "checkpoint_path": self.checkpoint_path,
            "sleeps": list(self.sleeps),
        }

    def summary(self) -> str:
        """Human-readable digest, styled after ``SelectionResult.summary``."""
        lines = [
            f"resilience: {self.backend_requested} -> {self.backend_used}"
            + (" (degraded)" if self.degraded else ""),
            f"  faults absorbed : {len(self.faults)}",
            f"  retries         : {self.retries}",
            f"  blocks          : {self.blocks_total} total, "
            f"{self.blocks_resumed} resumed, {self.blocks_recomputed} recomputed",
            f"  pool rebuilds   : {self.pool_rebuilds}",
        ]
        if self.checkpoint_path:
            lines.append(f"  checkpoint      : {self.checkpoint_path}")
        if self.backend_attempts:
            trail = ", ".join(
                f"{a['backend']}={a['outcome']}" for a in self.backend_attempts
            )
            lines.append(f"  attempts        : {trail}")
        return "\n".join(lines)
