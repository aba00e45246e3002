"""The shared-memory row executor: row blocks fanned over a worker pool.

The host sweeps never materialise anything n×n (the paper's CUDA program
stops at n = 20,000 for that): they walk row blocks of the fast rows
(:func:`~repro.core.fastgrid.fastgrid_row_contributions`) or the dense
rows (:func:`~repro.core.loocv.dense_row_contributions`), both
partition-invariant.  This is the parallel executor, for ``blocked-shm``
and the numerical optimiser's objective: X, Y and an n×k row matrix in
one :class:`~repro.parallel.ShmWorkspace`, one
:class:`~repro.parallel.WorkerPool` attached to it, both open across
calls, and per block only the grid and ``(start, stop)`` on the pipe.
The parent folds the rows in global order
(:func:`~repro.utils.numeric.fold_rows`): the serial executor's bits at
any block size and worker count.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from repro.core.fastgrid import fastgrid_row_contributions, plan_fastgrid_blocks
from repro.core.grid import ensure_bandwidth_grid
from repro.core.loocv import (
    DENSE_WORKING_ARRAYS,
    dense_block_rows,
    dense_row_contributions,
)
from repro.kernels import get_kernel
from repro.obs.tracer import current_tracer
from repro.parallel.pool import WorkerPool, available_workers
from repro.parallel.shm import ShmWorkspace, attach_workspace, current_workspace
from repro.resilience import faults
from repro.utils.membudget import BlockPlan, requested_budget
from repro.utils.numeric import fold_rows
from repro.utils.validation import check_paired_samples

__all__ = [
    "ShmRowExecutor",
    "cv_scores_blocked_shm",
    "plan_dense_blocks",
    "shm_block_rows",
    "shm_row_executor",
]


# -- shared-memory workers (top-level, hence picklable) ----------------------


def shm_block_rows(
    dense: bool,
    kernel_name: str,
    grid: np.ndarray,
    start: int,
    stop: int,
    dtype: str = "float64",
) -> np.ndarray | None:
    """Fill rows ``[start, stop)`` of the workspace's ``out`` matrix.

    The work unit: X and Y come from the attached workspace (zero-copy).
    Returns the dense rows' empty-window counts, ``None`` for fast rows.
    """
    workspace = current_workspace()
    x, y = workspace["x"], workspace["y"]
    empty: np.ndarray | None = None
    if dense:
        rows, empty = dense_row_contributions(
            x, y, grid, kernel_name, start, stop
        )
    else:
        rows = fastgrid_row_contributions(
            x, y, grid, kernel_name, start, stop, dtype
        )
    workspace["out"][start:stop, :] = rows
    return empty


class ShmRowExecutor:
    """Row blocks of one sample on a pool attached to its shared ``out``.

    :func:`shm_row_executor` owns both; a retry may rebuild :attr:`pool`.
    """

    def __init__(self, pool: WorkerPool, out: np.ndarray):
        self.pool = pool
        self.out = out

    def fold(
        self,
        grid: np.ndarray,
        kernel_name: str,
        blocks: list[tuple[int, int]],
        *,
        dense: bool,
        dtype: str = "float64",
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(Σ_i rows, empty-window counts)``; ``blocks`` partition ``range(n)``."""
        tracer = current_tracer()
        args_list = [
            (dense, kernel_name, grid, bstart, bstop, dtype)
            for bstart, bstop in blocks
        ]
        with tracer.span(
            "block-sweep", blocks=len(blocks), workers=self.pool.workers
        ):
            empties = self.pool.starmap(shm_block_rows, args_list)
        with tracer.span("reduce", rows=self.out.shape[0]):
            total = fold_rows(self.out)
        return total, (sum(empties) if dense else None)


@contextmanager
def shm_row_executor(
    x: np.ndarray,
    y: np.ndarray,
    *,
    k: int = 1,
    workers: int | None = None,
) -> Iterator[ShmRowExecutor]:
    """X, Y and an n×``k`` row matrix in shared memory, and a pool on them.

    Serves any number of ``k``-column folds; on exit the workers are
    joined (terminated on error) and every segment is unlinked.
    """
    n = int(x.shape[0])
    faults.fire("shm.segment", f"workspace[n={n},k={k}]")
    workspace = ShmWorkspace.create(
        inputs={"x": x, "y": y}, outputs={"out": ((n, k), "float64")}
    )
    try:
        pool = WorkerPool(
            workers, initializer=attach_workspace,
            initargs=(workspace.manifest(),),
        )
        with pool:
            executor = ShmRowExecutor(pool, workspace["out"])
            yield executor
    finally:
        workspace.close()


def _balanced(plan: BlockPlan, workers: int) -> BlockPlan:
    """Shrink ``plan``'s blocks until every worker gets as many as the rest.

    The block count rounds up to a multiple of ``workers``; rows only
    shrink, so the plan still fits its budget.
    """
    waves = -(-plan.n_blocks // workers)
    return replace(plan, block_rows=-(-plan.n // (waves * workers)))


def plan_dense_blocks(
    n: int, k: int, workers: int, *, max_rows: int | None = None
) -> BlockPlan:
    """The dense rows' blocks: :func:`dense_block_rows`, balanced over workers."""
    plan = BlockPlan(
        n=n, k=k, block_rows=dense_block_rows(n, max_rows),
        bytes_per_row=DENSE_WORKING_ARRAYS * 8 * n,
        fixed_bytes=8 * n * (k + 2), budget_bytes=None,
    )
    return _balanced(plan, workers)


def cv_scores_blocked_shm(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str = "epanechnikov",
    *,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    workers: int | None = None,
    dtype: str = "float64",
) -> np.ndarray:
    """One CV curve on the executor, bit-for-bit the ``numpy`` backend's.

    Polynomial kernels take the fast rows, every other kernel the dense
    rows.  ``block_rows`` caps the planned blocks, which are then shrunk
    to a whole number per worker (:func:`_balanced`); ``memory_budget``
    (default ``$REPRO_MEM_BUDGET``) fits the fast rows' blocks only.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = get_kernel(kernel)
    dense = not kern.supports_fast_grid
    n = int(x.shape[0])
    k = int(grid.shape[0])
    n_workers = available_workers(workers)
    tracer = current_tracer()
    with tracer.span(
        "blocked-shm-sweep", n=n, k=k, kernel=kern.name, dtype=dtype
    ):
        with tracer.span("plan") as pspan:
            if dense:
                plan = plan_dense_blocks(n, k, n_workers, max_rows=block_rows)
            else:
                plan = _balanced(plan_fastgrid_blocks(
                    n, grid, kern, dtype, max_rows=block_rows,
                    memory_budget=requested_budget(memory_budget),
                    output_matrix=True,
                ), n_workers)
            pspan.set(**plan.to_dict())
        with shm_row_executor(x, y, k=k, workers=n_workers) as executor:
            total, _ = executor.fold(
                grid, kern.name, plan.blocks(), dense=dense, dtype=dtype
            )
    return total / n
