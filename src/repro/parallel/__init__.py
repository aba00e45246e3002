"""Process-pool parallel substrate (the paper's "Multicore R" analogue)."""

from repro.parallel.pool import WorkerPool, available_workers
from repro.parallel.partition import balanced_blocks
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    SharedArray,
    ShmWorkspace,
    attach_workspace,
    current_workspace,
    detach_workspace,
)

__all__ = [
    "SEGMENT_PREFIX",
    "SharedArray",
    "ShmWorkspace",
    "WorkerPool",
    "attach_workspace",
    "available_workers",
    "balanced_blocks",
    "current_workspace",
    "detach_workspace",
]
