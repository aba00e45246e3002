"""The fleet coordinator: leases, folds, and survives a hostile fleet.

The sweep's map-reduce shape: :func:`~repro.core.fastgrid.plan_fastgrid_blocks`
partitions ``n`` rows into blocks whose per-observation
contribution rows (:func:`~repro.core.fastgrid.fastgrid_row_contributions`)
are partition-invariant, and the strict row-order fold
(:func:`~repro.utils.numeric.fold_rows`) makes the CV curve bit-for-bit
identical at any partition.  The coordinator distributes the *map* and
keeps the *reduce* local and canonical, so a fleet of any size — or a
fleet that is dying under it — produces byte-identical curves to the
local ``numpy`` backend.

Robustness model (the headline, per ROADMAP item 2):

* **Leases.**  Every dispatched block holds a lease ``(worker, epoch,
  deadline)``.  Results are folded **at most once**: a block already
  folded discards duplicates; a result from a superseded epoch (a
  straggler that finally answered) is discarded by epoch, never
  double-folded.
* **Stragglers.**  A lease past its deadline is speculatively
  re-dispatched under a new epoch to another live worker.
* **Heartbeats.**  Workers register via ``/healthz`` and are declared
  dead after consecutive missed heartbeats; their leases expire and
  move on.
* **Retry/backoff.**  Per-block retries reuse
  :class:`~repro.resilience.policy.RetryPolicy` — same deterministic
  jittered schedule, same ``REPRO_*`` code classification
  (:func:`~repro.resilience.degrade.is_retryable`) as the local engine's
  wave machinery.
* **Lossless degradation.**  A block that exhausts its retry budget —
  or the whole fleet going unreachable (``REPRO_DIST_FLEET_LOST``) — is
  computed locally with the *same* row function, so the answer is never
  wrong, only slower; the :class:`FleetReport` says exactly what
  happened.
"""

from __future__ import annotations

import heapq
import queue
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.fastgrid import (
    fastgrid_row_contributions,
    plan_fastgrid_blocks,
    require_fast_grid_kernel,
)
from repro.core.grid import ensure_bandwidth_grid
from repro.distributed.fleet import Fleet, WorkerHandle
from repro.distributed.protocol import (
    decode_compute_rows,
    encode_compute_request,
    encode_dataset,
)
from repro.exceptions import (
    DistributedProtocolError,
    FleetLostError,
    LeaseExpiredError,
    error_code,
)
from repro.obs.tracer import current_tracer
from repro.resilience.checkpoint import sweep_fingerprint
from repro.resilience.degrade import is_retryable
from repro.resilience.policy import RetryPolicy, run_with_retry
from repro.serving.metrics import MetricsRegistry
from repro.utils.membudget import requested_budget
from repro.utils.numeric import fold_rows
from repro.utils.validation import check_paired_samples

__all__ = [
    "CoordinatorConfig",
    "FleetCoordinator",
    "FleetReport",
    "fleet_metrics",
]

#: Shared registry for per-worker health gauges; the serving /metrics
#: endpoint appends it so fleet liveness is scrapeable alongside cache
#: and scheduler metrics.
_FLEET_METRICS = MetricsRegistry()


def fleet_metrics() -> MetricsRegistry:
    """The process-wide fleet metrics registry (worker health gauges)."""
    return _FLEET_METRICS


def _gauge_name(worker_id: str) -> str:
    return "dist_worker_up_" + re.sub(r"[^A-Za-z0-9_]", "_", worker_id)


@dataclass(frozen=True)
class CoordinatorConfig:
    """Timing knobs and the retry policy of one coordinator.

    ``clock``/``sleep`` are injectable so the lease and straggler logic
    is testable against a fake clock; defaults are the real monotonic
    clock and :func:`time.sleep`.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-block lease deadline (seconds); past it the block is
    #: speculatively re-dispatched under a new epoch.
    lease_timeout: float = 30.0
    #: RPC client timeout for one /compute exchange (shared semantics
    #: with the serving deadline: REPRO_SERVE_TIMEOUT either way).
    request_timeout: float = 30.0
    #: RPC timeout for staging the dataset on one worker.
    stage_timeout: float = 60.0
    #: Seconds between heartbeat rounds during a sweep.
    heartbeat_interval: float = 2.0
    #: Timeout for one heartbeat /healthz exchange.
    heartbeat_timeout: float = 1.0
    #: Consecutive missed heartbeats before a worker is dead.
    heartbeat_misses: int = 2
    #: Main-loop tick: how long one delivery wait blocks.
    tick: float = 0.02
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep


@dataclass
class FleetReport:
    """What the coordinator did — and survived — to finish one sweep.

    The distributed twin of
    :class:`~repro.resilience.degrade.ResilienceReport`; attached to
    ``SelectionResult.diagnostics["fleet"]`` so callers can read the
    fault classes the run absorbed.
    """

    workers: list[dict[str, Any]] = field(default_factory=list)
    blocks_total: int = 0
    blocks_remote: int = 0
    #: Blocks computed locally (retry budget spent or fleet lost) —
    #: the lossless degradation path, never a wrong answer.
    blocks_local: int = 0
    dispatches: int = 0
    retries: int = 0
    stragglers: int = 0
    duplicates_discarded: int = 0
    stale_discarded: int = 0
    checksum_rejects: int = 0
    heartbeat_rounds: int = 0
    fleet_lost: bool = False
    #: Every fault absorbed: {"stage", "code", "error"} per event.
    faults: list[dict[str, str]] = field(default_factory=list)
    #: Backoff delays scheduled (seconds), in order.
    backoffs: list[float] = field(default_factory=list)

    def record_fault(self, stage: str, exc: BaseException) -> None:
        self.faults.append(
            {
                "stage": stage,
                "code": error_code(exc) or type(exc).__name__,
                "error": str(exc),
            }
        )

    @property
    def degraded(self) -> bool:
        """True when any block bypassed the fleet (local fallback)."""
        return self.fleet_lost or self.blocks_local > 0

    @property
    def fault_codes(self) -> list[str]:
        """Distinct fault classes survived, in first-seen order."""
        seen: list[str] = []
        for fault in self.faults:
            if fault["code"] not in seen:
                seen.append(fault["code"])
        return seen

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": list(self.workers),
            "blocks_total": self.blocks_total,
            "blocks_remote": self.blocks_remote,
            "blocks_local": self.blocks_local,
            "dispatches": self.dispatches,
            "retries": self.retries,
            "stragglers": self.stragglers,
            "duplicates_discarded": self.duplicates_discarded,
            "stale_discarded": self.stale_discarded,
            "checksum_rejects": self.checksum_rejects,
            "heartbeat_rounds": self.heartbeat_rounds,
            "fleet_lost": self.fleet_lost,
            "degraded": self.degraded,
            "fault_codes": self.fault_codes,
            "faults": list(self.faults),
            "backoffs": list(self.backoffs),
        }

    def summary(self) -> str:
        lines = [
            "fleet: "
            + f"{self.blocks_remote}/{self.blocks_total} blocks remote, "
            + f"{self.blocks_local} local"
            + (" (degraded)" if self.degraded else ""),
            f"  dispatches      : {self.dispatches} "
            f"({self.retries} retries, {self.stragglers} stragglers)",
            f"  discarded       : {self.duplicates_discarded} duplicate, "
            f"{self.stale_discarded} stale, "
            f"{self.checksum_rejects} checksum-rejected",
            f"  faults survived : {', '.join(self.fault_codes) or 'none'}",
        ]
        if self.fleet_lost:
            lines.append("  fleet lost      : degraded to the local sweep")
        return "\n".join(lines)


@dataclass
class _Lease:
    """One in-flight block: who holds it, under which epoch, until when."""

    handle: WorkerHandle
    epoch: int
    deadline: float


@dataclass
class _Delivery:
    """One completed exchange surfaced to the main loop."""

    block_id: int
    epoch: int
    handle: WorkerHandle
    payload: dict[str, Any] | None = None
    error: BaseException | None = None


class FleetCoordinator:
    """Plan blocks, lease them to workers, fold the rows canonically."""

    def __init__(
        self,
        fleet: Fleet,
        config: CoordinatorConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.fleet = fleet
        self.config = config or CoordinatorConfig()
        self.metrics = metrics if metrics is not None else fleet_metrics()
        self.report = FleetReport()

    # -- the sweep ---------------------------------------------------------

    def cv_scores(
        self,
        x: np.ndarray,
        y: np.ndarray,
        bandwidths: np.ndarray,
        kernel: str = "epanechnikov",
        *,
        memory_budget: int | float | str | None = None,
        block_rows: int | None = None,
        dtype: str = "float64",
    ) -> np.ndarray:
        """Distributed CV scores, bit-identical to ``cv_scores_fastgrid``."""
        x, y = check_paired_samples(x, y)
        grid = ensure_bandwidth_grid(bandwidths)
        kern = require_fast_grid_kernel(kernel)
        n = int(x.shape[0])
        k = int(grid.shape[0])
        tracer = current_tracer()
        with tracer.span(
            "fleet-sweep", n=n, k=k, kernel=kern.name, dtype=dtype,
            workers=len(self.fleet.handles),
        ) as sweep_span:
            with tracer.span("plan") as pspan:
                # output_matrix=True: the coordinator holds every
                # block's rows until the final in-order fold, the same
                # n×k budget item the shm sweep plans for.
                plan = plan_fastgrid_blocks(
                    n, grid, kern, dtype,
                    memory_budget=requested_budget(memory_budget),
                    max_rows=block_rows, output_matrix=True,
                )
                pspan.set(**plan.to_dict())
            blocks = plan.blocks()
            self.report.blocks_total = len(blocks)
            dataset_id = sweep_fingerprint(
                x, y, grid, kern.name, dtype, plan.block_rows
            )[:16]
            self._register_and_stage(x, y, grid, kern.name, dtype, dataset_id)
            rows = self._run_leases(
                x, y, grid, kern.name, dtype, dataset_id, blocks, k
            )
            with tracer.span("fold", blocks=len(blocks)):
                total = np.zeros(k, dtype=np.float64)
                for block_id in range(len(blocks)):
                    fold_rows(rows[block_id], total)
            self.report.workers = self.fleet.describe()
            sweep_span.set(
                degraded=self.report.degraded,
                blocks_local=self.report.blocks_local,
                stragglers=self.report.stragglers,
            )
        return total / n

    # -- registration + staging -------------------------------------------

    def _register_and_stage(
        self,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kernel_name: str,
        dtype: str,
        dataset_id: str,
    ) -> None:
        """Heartbeat-register the fleet, then stage the dataset per worker.

        Staging failures retry on the shared policy; a worker that
        cannot stage is dead for this sweep.  Losing *every* worker
        here is not fatal — the lease loop degrades to local compute.
        """
        cfg = self.config
        tracer = current_tracer()
        self.fleet.heartbeat(
            timeout=cfg.heartbeat_timeout, miss_threshold=1
        )
        self.report.heartbeat_rounds += 1
        self._publish_health()
        message = encode_dataset(dataset_id, x, y, grid, kernel_name, dtype)
        for handle in self.fleet.live():
            with tracer.span("stage", worker=handle.worker_id):
                try:
                    run_with_retry(
                        lambda h=handle: h.transport.request(
                            "POST", "/dataset", message,
                            timeout=cfg.stage_timeout,
                        ),
                        policy=cfg.policy,
                        retryable=is_retryable,
                        sleep=cfg.sleep,
                        label=f"stage dataset on {handle.worker_id}",
                    )
                except Exception as exc:
                    # Typed classification: the worker is out of this
                    # sweep, the sweep itself survives.
                    self.report.record_fault("stage", exc)
                    handle.mark_dead()
        self._publish_health()

    # -- lease loop --------------------------------------------------------

    def _run_leases(
        self,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kernel_name: str,
        dtype: str,
        dataset_id: str,
        blocks: list[tuple[int, int]],
        k: int,
    ) -> dict[int, np.ndarray]:
        """Dispatch every block under a lease; return block_id → rows."""
        cfg = self.config
        tracer = current_tracer()
        rows: dict[int, np.ndarray] = {}
        epochs: dict[int, int] = {b: 0 for b in range(len(blocks))}
        attempts: dict[int, int] = {b: 0 for b in range(len(blocks))}
        leases: dict[int, _Lease] = {}
        #: (ready_at, block_id) min-heap of blocks awaiting dispatch.
        pending: list[tuple[float, int]] = [
            (0.0, block_id) for block_id in range(len(blocks))
        ]
        heapq.heapify(pending)
        deliveries: "queue.Queue[_Delivery]" = queue.Queue()
        rng = cfg.policy.jitter_rng()
        last_heartbeat = cfg.clock()

        def local_fallback(block_id: int, reason: BaseException) -> None:
            """Lossless degradation: compute this block in-process."""
            self.report.record_fault("lease", reason)
            start, stop = blocks[block_id]
            with tracer.span("degrade-local", block=block_id,
                             start=start, stop=stop):
                rows[block_id] = fastgrid_row_contributions(
                    x, y, grid, kernel_name, start, stop, dtype
                )
            self.report.blocks_local += 1
            leases.pop(block_id, None)

        def fail_block(block_id: int, exc: BaseException) -> None:
            """One failed attempt: back off and re-lease, or go local."""
            attempts[block_id] += 1
            epochs[block_id] += 1
            leases.pop(block_id, None)
            if attempts[block_id] > cfg.policy.max_retries:
                local_fallback(block_id, exc)
                return
            self.report.retries += 1
            self.report.record_fault("dispatch", exc)
            delay = cfg.policy.delay(attempts[block_id], rng)
            self.report.backoffs.append(delay)
            heapq.heappush(pending, (cfg.clock() + delay, block_id))

        executor = ThreadPoolExecutor(
            max_workers=max(2, len(self.fleet.handles) + 1),
            thread_name_prefix="repro-dist",
        )
        try:
            while len(rows) < len(blocks):
                now = cfg.clock()
                live = self.fleet.live()
                if not live and not leases:
                    remaining = [
                        b for b in range(len(blocks)) if b not in rows
                    ]
                    lost = FleetLostError(
                        f"no live workers remain with {len(remaining)} "
                        f"block(s) unfolded; degrading to the local "
                        "sweep"
                    )
                    self.report.fleet_lost = True
                    for block_id in remaining:
                        local_fallback(block_id, lost)
                    break
                self._issue_leases(
                    pending, leases, epochs, rows, dataset_id, blocks,
                    deliveries, executor, now,
                )
                try:
                    delivery = deliveries.get(timeout=cfg.tick)
                except queue.Empty:
                    delivery = None
                if delivery is not None:
                    self._absorb(
                        delivery, rows, leases, epochs, k, fail_block
                    )
                # Straggler scan: expired leases re-dispatch under a
                # fresh epoch; the old result, if it ever lands, is
                # discarded by epoch.
                now = cfg.clock()
                for block_id, lease in list(leases.items()):
                    if now <= lease.deadline or block_id in rows:
                        continue
                    self.report.stragglers += 1
                    fail_block(
                        block_id,
                        LeaseExpiredError(
                            f"block {block_id} lease on "
                            f"{lease.handle.worker_id} (epoch "
                            f"{lease.epoch}) passed its "
                            f"{cfg.lease_timeout:.3f}s deadline"
                        ),
                    )
                if now - last_heartbeat >= cfg.heartbeat_interval:
                    self.fleet.heartbeat(
                        timeout=cfg.heartbeat_timeout,
                        miss_threshold=cfg.heartbeat_misses,
                    )
                    self.report.heartbeat_rounds += 1
                    self._publish_health()
                    last_heartbeat = now
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            self._publish_health()
        return rows

    def _issue_leases(
        self,
        pending: list[tuple[float, int]],
        leases: dict[int, _Lease],
        epochs: dict[int, int],
        rows: dict[int, np.ndarray],
        dataset_id: str,
        blocks: list[tuple[int, int]],
        deliveries: "queue.Queue[_Delivery]",
        executor: ThreadPoolExecutor,
        now: float,
    ) -> None:
        """Hand ready blocks to idle live workers (one in flight each)."""
        cfg = self.config
        busy = {lease.handle.worker_id for lease in leases.values()}
        idle = [
            h for h in self.fleet.live() if h.worker_id not in busy
        ]
        while idle and pending and pending[0][0] <= now:
            _, block_id = heapq.heappop(pending)
            if block_id in rows or block_id in leases:
                continue
            handle = idle.pop(0)
            epoch = epochs[block_id]
            start, stop = blocks[block_id]
            leases[block_id] = _Lease(
                handle=handle, epoch=epoch,
                deadline=now + cfg.lease_timeout,
            )
            busy.add(handle.worker_id)
            handle.dispatched += 1
            self.report.dispatches += 1
            request = encode_compute_request(
                dataset_id, block_id, epoch, start, stop
            )

            def exchange(
                h: WorkerHandle = handle,
                req: dict[str, Any] = request,
                bid: int = block_id,
                ep: int = epoch,
            ) -> None:
                try:
                    payload = h.transport.request(
                        "POST", "/compute", req,
                        timeout=cfg.request_timeout,
                    )
                except Exception as exc:
                    # The main loop classifies by REPRO_* code.
                    deliveries.put(
                        _Delivery(block_id=bid, epoch=ep, handle=h, error=exc)
                    )
                    return
                deliveries.put(
                    _Delivery(block_id=bid, epoch=ep, handle=h, payload=payload)
                )
                for extra in h.transport.drain_duplicates():
                    deliveries.put(
                        _Delivery(
                            block_id=int(extra.get("block_id", bid)),
                            epoch=int(extra.get("epoch", ep)),
                            handle=h,
                            payload=extra,
                        )
                    )

            executor.submit(exchange)

    def _absorb(
        self,
        delivery: _Delivery,
        rows: dict[int, np.ndarray],
        leases: dict[int, _Lease],
        epochs: dict[int, int],
        k: int,
        fail_block: Callable[[int, BaseException], None],
    ) -> None:
        """Fold-or-discard one delivery under at-most-once accounting."""
        block_id = delivery.block_id
        current = epochs.get(block_id)
        if block_id in rows:
            # Already folded: a duplicate delivery (or a straggler that
            # beat its replacement).  Never fold twice.
            self.report.duplicates_discarded += 1
            return
        if current is None or delivery.epoch != current:
            # A superseded lease answered late; its replacement owns
            # the block now.
            self.report.stale_discarded += 1
            return
        if delivery.error is not None:
            delivery.handle.record_miss(self.config.heartbeat_misses)
            fail_block(block_id, delivery.error)
            return
        assert delivery.payload is not None
        try:
            decoded = decode_compute_rows(delivery.payload, k)
        except Exception as exc:
            if error_code(exc) == "REPRO_DIST_CHECKSUM":
                self.report.checksum_rejects += 1
            fail_block(block_id, exc)
            return
        lease = leases.pop(block_id, None)
        if lease is None:
            raise DistributedProtocolError(
                f"delivery for block {block_id} epoch {delivery.epoch} "
                "matches no lease — accounting bug"
            )
        rows[block_id] = decoded
        self.report.blocks_remote += 1
        delivery.handle.record_success()

    # -- health gauges -----------------------------------------------------

    def _publish_health(self) -> None:
        """Mirror fleet liveness into the shared /metrics registry."""
        for handle in self.fleet.handles:
            gauge = self.metrics.gauge(
                _gauge_name(handle.worker_id),
                f"worker {handle.worker_id} liveness (1 = up)",
            )
            gauge.set(1.0 if handle.alive else 0.0)
