"""The shared-memory blocked sweep: row blocks fanned over a worker pool.

The paper's CUDA program stores two n×n float32 matrices in device
memory and therefore "cannot exceed n = 20,000" on its 4 GB Tesla.  The
host sweep never materialises anything n×n: it walks row blocks sized by
:func:`~repro.core.fastgrid.plan_fastgrid_blocks` — the one rule every
executor of the row seam shares, which fits a ``memory_budget`` when one
is given.  This module is the parallel executor of that seam
(``blocked-shm``; the serial one is the ``numpy`` backend):

1. the blocks fan out over a :class:`~repro.parallel.WorkerPool` whose
   workers attach X, Y, the grid and the n×k contribution matrix by
   segment name (:mod:`repro.parallel.shm`) — per-block IPC is a
   ``(start, stop)`` pair;
2. each worker fills its rows of the shared matrix with the
   partition-invariant per-observation contributions
   (:func:`~repro.core.fastgrid.fastgrid_row_contributions`);
3. the parent folds the finished matrix in global row order with the
   canonical strict fold (:func:`~repro.utils.numeric.fold_rows`), so the
   CV curve is **bit-for-bit identical** to the ``numpy`` backend at any
   block size and any worker count.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.fastgrid import (
    fastgrid_row_contributions,
    plan_fastgrid_blocks,
    require_fast_grid_kernel,
)
from repro.obs.tracer import current_tracer
from repro.parallel.pool import WorkerPool, available_workers
from repro.parallel.shm import ShmWorkspace, attach_workspace, current_workspace
from repro.resilience import faults
from repro.utils.membudget import BlockPlan, requested_budget
from repro.utils.numeric import fold_rows
from repro.core.grid import ensure_bandwidth_grid
from repro.utils.validation import check_paired_samples

__all__ = [
    "cv_scores_blocked_shm",
    "shm_block_rows",
]


# -- shared-memory workers (top-level, hence picklable) ----------------------


def shm_block_rows(
    kernel_name: str, start: int, stop: int, dtype: str = "float64"
) -> tuple[int, int]:
    """Fill rows ``[start, stop)`` of the workspace's ``out`` matrix.

    The blocked-shm work unit: inputs come from the attached workspace
    (zero-copy), the contribution rows land in the shared n×k matrix,
    and only the row range crosses the pipe.
    """
    workspace = current_workspace()
    contrib = fastgrid_row_contributions(
        workspace["x"], workspace["y"], workspace["grid"],
        kernel_name, start, stop, dtype,
    )
    workspace["out"][start:stop, :] = contrib
    return start, stop


def _balanced(plan: BlockPlan, workers: int) -> BlockPlan:
    """Shrink ``plan``'s blocks until every worker gets as many as the rest.

    The block count rounds up to a multiple of ``workers`` (one sample
    small enough for a single block becomes one block per worker).  Rows
    only ever shrink, so the plan still fits its budget, and the strict
    row fold keeps the curve's bits.
    """
    waves = -(-plan.n_blocks // workers)
    return replace(plan, block_rows=-(-plan.n // (waves * workers)))


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
    """Blockwise sweep fanned over a shared-memory worker pool.

    Workers attach the inputs and the n×k contribution matrix by
    segment name; the parent folds the finished matrix in global row
    order, so the scores are bit-for-bit the ``numpy`` backend's for any
    block size *and* any worker count.  ``block_rows`` caps the blocks
    :func:`~repro.core.fastgrid.plan_fastgrid_blocks` plans, which are
    then shrunk to a whole number of blocks per worker (:func:`_balanced`).
    ``memory_budget`` defaults to ``$REPRO_MEM_BUDGET``.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    n = int(x.shape[0])
    k = int(grid.shape[0])
    n_workers = available_workers(workers)
    tracer = current_tracer()
    with tracer.span(
        "blocked-shm-sweep", n=n, k=k, kernel=kern.name, dtype=dtype
    ):
        with tracer.span("plan") as pspan:
            plan = plan_fastgrid_blocks(
                n,
                grid,
                kern,
                dtype,
                memory_budget=requested_budget(memory_budget),
                max_rows=block_rows,
                output_matrix=True,
            )
            plan = _balanced(plan, n_workers)
            pspan.set(**plan.to_dict())
        faults.fire("shm.segment", f"workspace[n={n},k={k}]")
        workspace = ShmWorkspace.create(
            inputs={"x": x, "y": y, "grid": grid},
            outputs={"out": ((n, k), "float64")},
        )
        try:
            blocks = plan.blocks()
            args_list = [
                (kern.name, bstart, bstop, dtype) for bstart, bstop in blocks
            ]
            with WorkerPool(
                n_workers,
                initializer=attach_workspace,
                initargs=(workspace.manifest(),),
            ) as pool, tracer.span(
                "block-sweep", blocks=len(blocks), workers=pool.workers
            ):
                pool.starmap(shm_block_rows, args_list)
            with tracer.span("reduce", rows=n):
                total = fold_rows(workspace["out"])
        finally:
            workspace.close()
    return total / n
