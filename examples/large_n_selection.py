"""Bandwidth selection past the paper's n = 20,000 memory wall — on the host.

The paper's CUDA program dies above n = 20,000 because it materialises
two n-by-n float32 matrices (Section IV-A).  The host-side analogue of
that wall is the m-by-n distance slab a vectorised sweep allocates.  The
``numpy`` backend removes it: one sizing rule picks a row-block size —
fitted to a *byte budget* when given one — the sweep computes one
block's contributions at a time,
and a strict row-order reduction keeps the CV curve **bit-for-bit
identical** to the all-at-once numpy sweep — any partition, any budget.

Shown here:

1. the bit-for-bit contract, demonstrated at a size small enough to
   compare against the dense sweep directly;
2. what the sizing rule does with a budget (blocks, predicted peak);
3. the paper's wall size, n = 20,000, swept inside a 128 MiB working
   set with the real tracemalloc peak printed next to the prediction;
4. the same selection through the shared-memory worker pool
   (``blocked-shm``), which adds parallelism without changing a bit.

Run:  python examples/large_n_selection.py       (a few seconds)
"""

import tracemalloc

import numpy as np

from repro.core.api import select_bandwidth
from repro.core.backends import get_backend
from repro.core.fastgrid import plan_fastgrid_blocks
from repro.core.grid import BandwidthGrid


def make_sample(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, n)
    return x, y


def main() -> None:
    # -- 1. the contract: any block size, the same bits ----------------------
    x, y = make_sample(3_000)
    grid = np.linspace(0.01, 0.30, 20)
    dense = get_backend("numpy")(x, y, grid, "epanechnikov")
    print("bit-for-bit at n = 3,000 (vs the all-at-once numpy sweep):")
    for rows in (1, 999, 3_000):
        blocked = get_backend("numpy")(
            x, y, grid, "epanechnikov", block_rows=rows
        )
        same = blocked.tobytes() == dense.tobytes()
        print(f"  block_rows={rows:>5}: identical bytes = {same}")

    # -- 2. what a budget buys ----------------------------------------------
    n = 20_000
    grid = BandwidthGrid.evenly_spaced(0.01, 0.30, 15)
    print(f"\nplanning n = {n:,}, k = 15 under different budgets:")
    for budget in ("16MiB", "64MiB", "2GiB"):
        plan = plan_fastgrid_blocks(n, grid.values, "epanechnikov", memory_budget=budget)
        print(
            f"  {budget:>7}: {plan.n_blocks:>4} blocks of "
            f"{plan.block_rows:>5} rows, predicted peak "
            f"{plan.predicted_peak_bytes / 1024**2:7.1f} MiB"
        )

    # -- 3. the paper's wall size inside 128 MiB -----------------------------
    x, y = make_sample(n, seed=42)
    tracemalloc.start()
    try:
        result = select_bandwidth(
            x, y, backend="numpy", grid=grid, memory_budget="128MiB"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    plan = plan_fastgrid_blocks(n, grid.values, "epanechnikov", memory_budget="128MiB")
    print(f"\nn = {n:,} selection under a 128 MiB budget:")
    print(f"  h* = {result.bandwidth:.5f}  CV(h*) = {result.score:.6f}")
    print(
        f"  measured peak {peak / 1024**2:.1f} MiB vs predicted "
        f"{plan.predicted_peak_bytes / 1024**2:.1f} MiB "
        f"(a dense sweep would need ~{n * n * 8 / 1024**3:.1f} GiB)"
    )

    # -- 4. the shared-memory pool: parallel, still bit-identical ------------
    xs, ys = make_sample(4_000, seed=7)
    serial = select_bandwidth(
        xs, ys, backend="numpy", n_bandwidths=12
    )
    pooled = select_bandwidth(
        xs, ys, backend="blocked-shm", n_bandwidths=12, workers=2
    )
    print("\nblocked-shm (2 workers, zero-copy segments) vs numpy:")
    print(
        f"  same h*: {pooled.bandwidth == serial.bandwidth}, "
        "same scores bytes: "
        f"{np.asarray(pooled.scores).tobytes() == np.asarray(serial.scores).tobytes()}"
    )


if __name__ == "__main__":
    main()
