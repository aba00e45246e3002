"""The ``distributed`` grid backend: a fleet behind the backend registry.

Registered lazily by :func:`repro.core.backends.get_backend` (the same
import-on-demand pattern as the gpusim backends), so selecting
``backend="distributed"`` plugs the fleet coordinator into everything
that already speaks backends: ``select_bandwidth``, the resilient
engine's degrade chain (spur: ``distributed → numpy``), the
CLI, and the serving layer.

Fleet resolution, most explicit first:

1. ``fleet=`` — a prepared :class:`~repro.distributed.fleet.Fleet`
   (tests and long-lived deployments own its lifecycle);
2. ``workers=<int>`` — spawn that many local worker processes for the
   duration of the call;
3. ``workers=<list>`` / ``workers="host:port,..."`` — connect to
   pre-existing endpoints;
4. ``REPRO_WORKERS`` env var, same two spellings;
5. none of the above — there is no fleet, so the call *losslessly
   degrades* to the in-process ``numpy`` sweep and says so in its report
   (never a wrong answer, never a surprise crash).

The last sweep's :class:`~repro.distributed.coordinator.FleetReport`
is kept in a context variable; :func:`select_distributed` attaches it
to ``SelectionResult.diagnostics["fleet"]`` so callers can read the
fault classes the run survived.
"""

from __future__ import annotations

import contextvars
import os
from typing import Any

import numpy as np

from repro.core.backends import register_backend
from repro.core.fastgrid import cv_scores_fastgrid
from repro.core.loocv import cv_scores_dense_grid
from repro.distributed.coordinator import (
    CoordinatorConfig,
    FleetCoordinator,
    FleetReport,
)
from repro.distributed.fleet import Fleet, HttpFleet, LocalProcessFleet
from repro.exceptions import FleetLostError, ValidationError
from repro.kernels import Kernel, get_kernel

__all__ = [
    "select_distributed",
    "last_fleet_report",
    "resolve_fleet",
]

_LAST_REPORT: "contextvars.ContextVar[FleetReport | None]" = (
    contextvars.ContextVar("repro_last_fleet_report", default=None)
)


def last_fleet_report() -> FleetReport | None:
    """The :class:`FleetReport` of the most recent distributed sweep."""
    return _LAST_REPORT.get()


def resolve_fleet(
    workers: Any = None,
) -> tuple[Fleet | None, bool]:
    """Turn a ``workers=`` value (or env) into a fleet; returns (fleet, owned).

    ``owned`` tells the caller to close the fleet after the sweep
    (spawned subprocesses); connected endpoint fleets are cheap handle
    bundles the caller may drop.
    """
    if workers is None:
        workers = os.environ.get("REPRO_WORKERS") or None
    if workers is None:
        return None, False
    if isinstance(workers, Fleet):
        return workers, False
    if isinstance(workers, bool):
        raise ValidationError("workers must be an int, endpoints, or a Fleet")
    if isinstance(workers, int):
        return LocalProcessFleet(workers), True
    if isinstance(workers, str):
        text = workers.strip()
        if text.isdigit():
            return LocalProcessFleet(int(text)), True
        workers = [part for part in text.split(",") if part.strip()]
    if isinstance(workers, (list, tuple)):
        return HttpFleet([str(w).strip() for w in workers]), True
    raise ValidationError(
        f"cannot build a fleet from workers={workers!r}; pass an int, "
        "a list of host:port endpoints, or a Fleet"
    )


def _distributed_backend(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    workers: Any = None,
    fleet: Fleet | None = None,
    coordinator_config: CoordinatorConfig | None = None,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    dtype: str = "float64",
    **_: object,
) -> np.ndarray:
    kern = get_kernel(kernel)
    if not kern.supports_fast_grid:
        # Dense kernels have no row-contribution form to distribute;
        # evaluate locally like every other backend (paper footnote 1).
        return cv_scores_dense_grid(x, y, bandwidths, kernel)
    active, owned = (fleet, False) if fleet is not None else resolve_fleet(workers)
    if active is None:
        # No fleet configured: lossless degradation with an explicit
        # report, exactly as if the fleet were unreachable.
        report = FleetReport(fleet_lost=True)
        report.record_fault(
            "fleet",
            FleetLostError(
                "no workers configured (workers=None and REPRO_WORKERS "
                "unset); computing locally via the numpy sweep"
            ),
        )
        _LAST_REPORT.set(report)
        return cv_scores_fastgrid(
            x, y, bandwidths, kern.name,
            memory_budget=memory_budget, block_rows=block_rows, dtype=dtype,
        )
    coordinator = FleetCoordinator(active, coordinator_config)
    try:
        scores = coordinator.cv_scores(
            x, y, bandwidths, kern.name,
            memory_budget=memory_budget, block_rows=block_rows, dtype=dtype,
        )
    finally:
        _LAST_REPORT.set(coordinator.report)
        if owned:
            active.close()
    return scores


def select_distributed(
    x: np.ndarray,
    y: np.ndarray,
    *,
    workers: Any = None,
    fleet: Fleet | None = None,
    coordinator_config: CoordinatorConfig | None = None,
    **kwargs: Any,
) -> Any:
    """``select_bandwidth(backend="distributed")`` with the fleet report.

    The returned :class:`~repro.core.result.SelectionResult` carries
    ``diagnostics["fleet"]`` — block accounting, per-worker tallies,
    and the distinct ``REPRO_*`` fault classes the sweep survived.
    """
    from repro.core.api import select_bandwidth

    options: dict[str, Any] = dict(kwargs)
    if fleet is not None:
        options["fleet"] = fleet
    if workers is not None:
        options["workers"] = workers
    if coordinator_config is not None:
        options["coordinator_config"] = coordinator_config
    result = select_bandwidth(x, y, backend="distributed", **options)
    report = last_fleet_report()
    if report is not None:
        result.diagnostics["fleet"] = report.to_dict()
    return result


register_backend("distributed", _distributed_backend, overwrite=True)
