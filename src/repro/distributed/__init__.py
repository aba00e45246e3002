"""Distributed sharded bandwidth selection (ROADMAP item 2).

A coordinator/worker subsystem over the serving stack's JSON-over-HTTP
protocol: the coordinator plans row blocks with the same sizing rule
as the local ``numpy`` backend, leases them to worker processes with
deadlines and at-most-once fold accounting, and folds the partial
contribution rows in canonical order — so the distributed CV curve is
**byte-identical** to the local one at any fleet size, under worker
death, stragglers, duplicate deliveries, corrupt payloads, and total
fleet loss (which degrades losslessly to the local sweep).

Importing this package registers the ``distributed`` backend.
"""

from repro.distributed.backend import (
    last_fleet_report,
    resolve_fleet,
    select_distributed,
)
from repro.distributed.chaos import ChaosTransport, NetFaultSpec
from repro.distributed.coordinator import (
    CoordinatorConfig,
    FleetCoordinator,
    FleetReport,
    fleet_metrics,
)
from repro.distributed.fleet import (
    Fleet,
    HttpFleet,
    InProcessFleet,
    LocalProcessFleet,
    WorkerHandle,
)
from repro.distributed.transport import (
    HttpWorkerTransport,
    InProcessTransport,
    WorkerTransport,
)
from repro.distributed.worker import WorkerApp

__all__ = [
    "ChaosTransport",
    "CoordinatorConfig",
    "Fleet",
    "FleetCoordinator",
    "FleetReport",
    "HttpFleet",
    "HttpWorkerTransport",
    "InProcessFleet",
    "InProcessTransport",
    "LocalProcessFleet",
    "NetFaultSpec",
    "WorkerApp",
    "WorkerHandle",
    "WorkerTransport",
    "fleet_metrics",
    "last_fleet_report",
    "resolve_fleet",
    "select_distributed",
]
