"""Blockwise out-of-core CV sweep: past the paper's n = 20,000 wall.

The paper's CUDA program stores two n×n float32 matrices in device
memory and therefore "cannot exceed n = 20,000" on its 4 GB Tesla.  The
same wall exists on the host: the vectorised fast grid search
materialises an m×n distance slab per chunk, and an unplanned chunk size
at n = 100,000 is a multi-gigabyte allocation.  This module makes the
memory ceiling an explicit *budget* instead of an accident:

1. a :func:`~repro.utils.membudget.plan_blocks` plan picks the row-block
   size B so that one block's sorted-sweep working set — distances,
   bin indices, per-term prefix sums — fits the byte budget
   (O(n·B + n·k) peak, never O(n²));
2. the sweep walks the blocks in index order, folding each block's
   per-observation contribution rows into the running k-vector with the
   canonical strict fold (:func:`~repro.utils.numeric.fold_rows`), so
   the CV curve is **bit-for-bit identical** to the ``numpy`` backend at
   *any* block size;
3. the shared-memory variant fans the blocks out over a
   :class:`~repro.parallel.WorkerPool` whose workers attach X, Y, the
   grid and the n×k contribution matrix by segment name
   (:mod:`repro.parallel.shm`) — per-block IPC is a ``(start, stop)``
   pair, and the parent performs the same global fold over the shared
   matrix, preserving the bit-exactness guarantee across worker counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastgrid import (
    fastgrid_block_sums,
    fastgrid_row_contributions,
    require_fast_grid_kernel,
)
from repro.obs.tracer import current_tracer
from repro.parallel.pool import WorkerPool, traced_work_unit
from repro.parallel.shm import ShmWorkspace, attach_workspace, current_workspace
from repro.resilience import faults
from repro.utils.membudget import BlockPlan, plan_blocks
from repro.utils.numeric import fold_rows
from repro.core.grid import ensure_bandwidth_grid
from repro.utils.validation import check_paired_samples

__all__ = [
    "cv_scores_blocked",
    "cv_scores_blocked_shm",
    "plan_for",
    "shm_block_rows",
    "shm_block_sums",
]


def plan_for(
    n: int,
    k: int,
    kernel_name: str,
    *,
    dtype: str = "float64",
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    output_matrix: bool = False,
) -> BlockPlan:
    """The block plan both blocked backends (and the engine) agree on."""
    kern = require_fast_grid_kernel(kernel_name)
    return plan_blocks(
        n,
        k,
        n_terms=len(kern.poly_terms or ()) or 1,
        itemsize=np.dtype(dtype).itemsize,
        budget=memory_budget,
        output_matrix=output_matrix,
        max_rows=block_rows,
    )


def cv_scores_blocked(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str = "epanechnikov",
    *,
    memory_budget: int | float | str | None = None,
    block_rows: int | None = None,
    dtype: str = "float64",
) -> np.ndarray:
    """Out-of-core CV scores: one budget-sized row block at a time.

    Peak memory is the plan's ``predicted_peak_bytes`` (asserted against
    tracemalloc in the test suite); the result is bit-for-bit the
    ``numpy`` backend's at every block size, including B = 1 and B >= n.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    n = int(x.shape[0])
    k = int(grid.shape[0])
    tracer = current_tracer()
    total = np.zeros(k, dtype=np.float64)
    with tracer.span("blocked-sweep", n=n, k=k, kernel=kern.name, dtype=dtype):
        with tracer.span("plan") as pspan:
            plan = plan_for(
                n,
                k,
                kern.name,
                dtype=dtype,
                memory_budget=memory_budget,
                block_rows=block_rows,
            )
            pspan.set(**plan.to_dict())
        for index, (bstart, bstop) in enumerate(plan.blocks()):
            with tracer.span(
                "block-sweep", index=index, start=bstart, stop=bstop
            ):
                contrib = fastgrid_row_contributions(
                    x, y, grid, kern.name, bstart, bstop, dtype
                )
                with tracer.span("reduce", rows=bstop - bstart):
                    fold_rows(contrib, total)
    return total / n


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


def shm_block_sums(
    kernel_name: str, start: int, stop: int, dtype: str = "float64"
) -> np.ndarray:
    """Block k-vector partial read from the attached workspace.

    The resilient engine's blocked-shm work unit: same partial sums as
    the serial ``blocked`` candidate (identical bits for an identical
    partition — what makes shm -> blocked degradation lossless), with
    the inputs attached rather than pickled.
    """
    workspace = current_workspace()
    return fastgrid_block_sums(
        workspace["x"], workspace["y"], workspace["grid"],
        kernel_name, start, stop, dtype,
    )


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
    order, so the scores are bit-for-bit :func:`cv_scores_blocked`'s —
    and hence the ``numpy`` backend's — for any block size *and* any
    worker count.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    n = int(x.shape[0])
    k = int(grid.shape[0])
    tracer = current_tracer()
    with tracer.span(
        "blocked-shm-sweep", n=n, k=k, kernel=kern.name, dtype=dtype
    ):
        with tracer.span("plan") as pspan:
            plan = plan_for(
                n,
                k,
                kern.name,
                dtype=dtype,
                memory_budget=memory_budget,
                block_rows=block_rows,
                output_matrix=True,
            )
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
                workers,
                initializer=attach_workspace,
                initargs=(workspace.manifest(),),
            ) as pool:
                if tracer.enabled:
                    with tracer.span(
                        "block-sweep", blocks=len(blocks), workers=pool.workers
                    ) as parent:
                        wrapped = [
                            (shm_block_rows,) + args for args in args_list
                        ]
                        outputs = pool.starmap(traced_work_unit, wrapped)
                        for _, spans, counters, maxima in outputs:
                            tracer.adopt(spans, parent_id=parent.span_id)
                            tracer.merge_counters(counters, maxima)
                else:
                    pool.starmap(shm_block_rows, args_list)
            with tracer.span("reduce", rows=n):
                total = fold_rows(workspace["out"])
        finally:
            workspace.close()
    return total / n
