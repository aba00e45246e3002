"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The GPU-simulator errors mirror the
CUDA error conditions that the paper's program can hit on real hardware
(out of device memory, exceeding the constant-memory working set, invalid
launch configurations).

Every class carries a stable, machine-readable :attr:`~ReproError.code`
(``REPRO_*``).  The resilience layer's retry/degrade decisions and
structured logs match on these codes rather than on class identity, so
exception classes can be renamed or re-parented across refactors without
silently changing fallback behaviour.  The code is prefixed to
``str(exc)`` — ``[REPRO_DEVICE_OOM] device tesla: cannot allocate ...`` —
so plain log lines stay greppable by code.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "DataShapeError",
    "BandwidthGridError",
    "DegenerateDataError",
    "SelectionError",
    "BackendError",
    "GpuSimError",
    "DeviceMemoryError",
    "ConstantMemoryError",
    "SharedMemoryError",
    "LaunchConfigurationError",
    "DeviceStateError",
    "KernelExecutionError",
    "MemoryBudgetError",
    "PoolStateError",
    "SharedSegmentError",
    "WorkerCrashError",
    "BlockTimeoutError",
    "DataCorruptionError",
    "CheckpointError",
    "ServingError",
    "CacheError",
    "RegistryError",
    "OverloadError",
    "ServeTimeoutError",
    "DistributedError",
    "WorkerUnavailableError",
    "LeaseExpiredError",
    "PayloadChecksumError",
    "DistributedProtocolError",
    "FleetLostError",
    "error_code",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""

    #: Stable machine-readable identifier; subclasses override.
    code: str = "REPRO_ERROR"

    def __str__(self) -> str:
        base = super().__str__()
        return f"[{self.code}] {base}" if base else f"[{self.code}]"


def error_code(exc: BaseException) -> str | None:
    """The stable ``REPRO_*`` code of ``exc``, or ``None`` for foreign errors."""
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) and code.startswith("REPRO_") else None


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad type, shape, or value)."""

    code = "REPRO_VALIDATION"


class DataShapeError(ValidationError):
    """Input arrays have incompatible or unusable shapes."""

    code = "REPRO_DATA_SHAPE"


class BandwidthGridError(ValidationError):
    """A bandwidth grid is malformed (non-positive, unsorted, empty...)."""

    code = "REPRO_BANDWIDTH_GRID"


class DegenerateDataError(ReproError):
    """The data admit no meaningful bandwidth choice.

    Raised e.g. when every ``X_i`` is identical (zero domain) so no
    compact-support kernel can ever have a non-empty leave-one-out window.
    """

    code = "REPRO_DEGENERATE_DATA"


class SelectionError(ReproError):
    """Bandwidth selection failed to produce a usable optimum."""

    code = "REPRO_SELECTION"


class BackendError(ReproError):
    """A computation backend is unknown or unavailable."""

    code = "REPRO_BACKEND"


class GpuSimError(ReproError):
    """Base class for GPU-simulator errors (mirrors ``cudaError_t``)."""

    code = "REPRO_GPUSIM"


class DeviceMemoryError(GpuSimError, MemoryError):
    """Global-memory allocation failed (``cudaErrorMemoryAllocation``).

    The paper hits exactly this above n = 20,000: the two n-by-n float32
    matrices no longer fit in the Tesla's 4 GB of device memory.
    """

    code = "REPRO_DEVICE_OOM"


class ConstantMemoryError(GpuSimError):
    """Constant-memory working set exceeded.

    The paper bounds the number of bandwidths at 2,048 because the typical
    constant-memory *cache* working set is 8 KB (2,048 float32 values).
    """

    code = "REPRO_CONST_MEM"


class SharedMemoryError(GpuSimError):
    """A block requested more shared memory than the SM provides."""

    code = "REPRO_SHARED_MEM"


class LaunchConfigurationError(GpuSimError):
    """Invalid kernel launch configuration (``cudaErrorInvalidConfiguration``)."""

    code = "REPRO_LAUNCH_CONFIG"


class DeviceStateError(GpuSimError):
    """Operation attempted on a freed buffer or reset device."""

    code = "REPRO_DEVICE_STATE"


class KernelExecutionError(GpuSimError):
    """A device kernel raised during simulated execution."""

    code = "REPRO_KERNEL_EXEC"


class MemoryBudgetError(ValidationError):
    """A host-memory byte budget cannot accommodate the computation.

    Raised by the blockwise planner when the budget is smaller than the
    fixed working set plus a single row block — no block size B can make
    the sweep fit, so the configuration (not the data) is at fault.
    """

    code = "REPRO_MEM_BUDGET"


class SharedSegmentError(ReproError):
    """A shared-memory segment vanished or failed to attach.

    Models an unlinked/evicted POSIX shm segment under a live worker pool
    (a ``/dev/shm`` purge, an external ``shm_unlink``): the zero-copy
    substrate is structurally gone, so the engine degrades to the
    serial ``numpy`` backend rather than retrying in place.
    """

    code = "REPRO_SHM_SEGMENT"


class PoolStateError(ReproError):
    """Operation attempted on a closed (retired) worker pool.

    The process-pool analogue of :class:`DeviceStateError`: a
    :class:`~repro.parallel.WorkerPool` that has been closed stays closed —
    re-entering it would silently fork a fresh set of workers behind the
    caller's back, so the attempt is rejected with this typed error instead
    of a raw ``multiprocessing`` ``ValueError``.
    """

    code = "REPRO_POOL_STATE"


class WorkerCrashError(ReproError):
    """A pool worker died while executing a work unit.

    Models a segfaulted/OOM-killed child process: the block's partial
    result is lost, and the pool may need to be rebuilt before retrying.
    """

    code = "REPRO_WORKER_CRASH"


class BlockTimeoutError(ReproError):
    """A work unit exceeded its per-block deadline.

    Models a hung worker (deadlocked fork, livelocked NFS read...): the
    parent gives up on the in-flight result, rebuilds the pool, and
    recomputes the block.
    """

    code = "REPRO_BLOCK_TIMEOUT"


class DataCorruptionError(ReproError):
    """A partial result failed its integrity check (NaN/Inf contamination).

    Models silent data corruption — a bad DIMM, a truncated shard, an
    undetected float overflow in a worker — caught by the resilience
    layer's finiteness check on every block of partial CV sums.
    """

    code = "REPRO_DATA_CORRUPT"


class CheckpointError(ReproError):
    """A checkpoint file is unreadable or belongs to a different sweep."""

    code = "REPRO_CHECKPOINT"


class ServingError(ReproError):
    """Base class for errors raised by the serving layer."""

    code = "REPRO_SERVING"


class CacheError(ServingError):
    """An artifact-cache entry is unreadable or fails its integrity check.

    A corrupt or truncated cache file is treated as a miss by the read
    path wherever possible; this error surfaces only when the cache
    itself is misconfigured (bad budget, unwritable directory) or a
    stored payload contradicts its own metadata.
    """

    code = "REPRO_CACHE"


class RegistryError(ServingError):
    """A model-registry operation referenced an unknown or duplicate model."""

    code = "REPRO_REGISTRY"


class OverloadError(ServingError):
    """The serving layer shed a request under admission control.

    Raised when the micro-batching scheduler's bounded queue is full —
    the request never started executing, so the caller can safely retry
    against another replica or after backoff.  Mapped to HTTP 429 by the
    server.
    """

    code = "REPRO_SERVE_OVERLOAD"


class ServeTimeoutError(ServingError):
    """A request exceeded its deadline (server side) or timed out (client).

    Shared between the serving server (per-request deadline / connection
    read timeout, mapped to HTTP 504) and the distributed RPC client
    (a worker that accepted a connection but never answered).  Either
    way the work may or may not have run — the caller must treat the
    outcome as unknown and rely on at-most-once fold accounting before
    retrying.
    """

    code = "REPRO_SERVE_TIMEOUT"


class DistributedError(ReproError):
    """Base class for coordinator/worker fleet errors (``REPRO_DIST_*``).

    Models the failure surface of ROADMAP item 2's sharded selection:
    everything that can go wrong *between* processes — unreachable
    workers, expired block leases, corrupt payloads — as opposed to the
    in-process faults the resilience layer already classifies.
    """

    code = "REPRO_DIST"


class WorkerUnavailableError(DistributedError):
    """A worker endpoint refused, dropped, or reset the connection.

    Models a killed pod / crashed worker process: the request provably
    did not complete on this worker, so the block can be re-dispatched
    to another worker without double-fold risk.
    """

    code = "REPRO_DIST_UNREACHABLE"


class LeaseExpiredError(DistributedError):
    """A block lease passed its deadline before a result arrived.

    Models a straggling or hung worker: the coordinator re-dispatches
    the block under a new lease epoch; any late result from the old
    epoch is discarded by the at-most-once fold accounting.
    """

    code = "REPRO_DIST_LEASE_EXPIRED"


class PayloadChecksumError(DistributedError):
    """A worker's partial result failed its payload checksum.

    Models corruption on the wire or in a worker's memory: the rows do
    not hash to the checksum the worker computed over its own output
    (or the checksum itself is malformed), so the block is recomputed
    rather than folded.
    """

    code = "REPRO_DIST_CHECKSUM"


class DistributedProtocolError(DistributedError):
    """A fleet message is structurally malformed (not a fault, a bug).

    Unknown message fields, missing block bounds, a response for a
    dataset the worker never staged: these indicate version skew or a
    programming error, not a transient fault, so they are not retried.
    """

    code = "REPRO_DIST_PROTOCOL"


class FleetLostError(DistributedError):
    """No live workers remain (fleet unreachable or quorum lost).

    The coordinator raises this to trigger the lossless degradation
    spur: the sweep falls back to the local ``numpy`` backend with an
    explicit report — never a wrong answer.
    """

    code = "REPRO_DIST_FLEET_LOST"
