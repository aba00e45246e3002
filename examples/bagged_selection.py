"""Bagged subsampled-CV bandwidth selection — huge n, exact grid points.

The exact fast-grid sweep fits n = 100,000 in bounded memory (see
``examples/large_n_selection.py``), and on the sorted window-sum path it
takes seconds.  The bagged selector (arXiv:2105.04134) runs the
same sweep on r seeded subsamples of size m ≪ n and combines the votes
through the known h ~ n^(−1/5) rate — O(r·m²·log k), independent of n
once m is capped.

Shown here:

1. the estimator at a size where the exact answer is cheap to compute —
   grid-matched rescaling means every subsample votes for an *exact*
   point of the full-sample grid, so the bagged h* is compared to the
   exact sweep's in grid points, not float drift;
2. the determinism contract: the same ``(root_seed, r, m, grid)`` plan
   replays bit-for-bit on any strict-fold backend;
3. the degenerate case m = n, r = 1 reducing to the exact grid search
   to the bit;
4. the default plan at n = 200,000, whose cost no longer grows with n
   once m reaches its cap.

Run:  python examples/bagged_selection.py       (well under a minute)
"""

import time

import numpy as np

from repro.core.api import select_bandwidth
from repro.core.grid import BandwidthGrid


def make_sample(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, n)
    return x, y


def main() -> None:
    # -- 1. votes are exact full-grid points ---------------------------------
    x, y = make_sample(5_000)
    exact = select_bandwidth(x, y)  # the exact fast-grid sweep
    bagged = select_bandwidth(
        x, y, method="bagged", subsamples=10, subsample_size=800, root_seed=0
    )
    grid = BandwidthGrid.for_sample(x, 50)
    print("n = 5,000, r = 10 subsamples of m = 800:")
    print(f"  exact  h* = {exact.bandwidth:.6f}")
    print(f"  bagged h* = {bagged.bandwidth:.6f}")
    print(f"  every subsample vote on the full grid: "
          f"{all(h in grid.values for h in bagged.bandwidths)}")
    rel = abs(bagged.bandwidth - exact.bandwidth) / exact.bandwidth
    print(f"  rel. error vs exact at this (deliberately small) m: {rel:.1%}")

    # -- 2. the plan *is* the result: bit-for-bit replay ---------------------
    again = select_bandwidth(
        x, y, method="bagged", subsamples=10, subsample_size=800, root_seed=0
    )
    shm = select_bandwidth(
        x, y, method="bagged", subsamples=10, subsample_size=800, root_seed=0,
        backend="blocked-shm", workers=2,
    )
    blocked = select_bandwidth(
        x, y, method="bagged", subsamples=10, subsample_size=800, root_seed=0,
        backend="numpy", memory_budget="64MiB",
    )
    print("\nsame (root_seed, r, m, grid), three execution shapes:")
    print(f"  serial replay identical       : "
          f"{again.bandwidth == bagged.bandwidth and np.array_equal(again.scores, bagged.scores)}")
    print(f"  2-worker blocked-shm identical: "
          f"{shm.bandwidth == bagged.bandwidth and np.array_equal(shm.scores, bagged.scores)}")
    print(f"  budgeted numpy identical      : "
          f"{blocked.bandwidth == bagged.bandwidth and np.array_equal(blocked.scores, bagged.scores)}")

    # -- 3. m = n degenerates to the exact sweep -----------------------------
    degenerate = select_bandwidth(
        x, y, method="bagged", subsamples=1, subsample_size=5_000, root_seed=0
    )
    print(f"\nm = n, r = 1 reduces to the exact grid search: "
          f"{degenerate.bandwidth == exact.bandwidth}")

    # -- 4. a large n on the default plan --------------------------------------
    n = 200_000
    xl, yl = make_sample(n, seed=42)
    start = time.perf_counter()
    big = select_bandwidth(xl, yl, method="bagged", root_seed=0)
    wall = time.perf_counter() - start
    bag = big.diagnostics["bagged"]
    print(f"\nn = {n:,} with the default plan "
          f"(r = {bag['n_subsamples']}, m = {bag['subsample_size']}):")
    print(f"  h* = {big.bandwidth:.6f} in {wall:.1f} s")


if __name__ == "__main__":
    main()
