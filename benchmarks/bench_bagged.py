"""Bagged subsampled-CV selection: accuracy vs. speed against the exact sweep.

The exact sweep's cost is O(n² log k): at n = 100,000 the blocked
sweep needed ~25 minutes (BENCH_blockwise.json).  The bagged selector
answers the same question — which point of the full-sample candidate
grid minimises CV — from r seeded subsamples of size m in O(r·m²·log k),
and this benchmark measures both sides of that trade at each n:

* wall-clock seconds of the bagged selection (default plan, root seed 0)
  and its ``h_opt``;
* the exact blocked sweep's seconds and ``h_opt`` at the same n — taken
  from ``BENCH_blockwise.json`` where a row exists (same DGP, same seed,
  same k = 50 grid) so the full-size sweep is not re-paid here, or
  measured live with ``--live-exact``;
* the derived ``speedup`` and ``rel_error`` columns — the acceptance
  gate is >= 10x at <= 5% relative error at n = 100,000;
* the paper's Table I run times at the same n, where published, as the
  hardware-context overlay.

Writes ``BENCH_bagged.json`` at the repository root::

    python benchmarks/bench_bagged.py            # quick sizes
    python benchmarks/bench_bagged.py --full     # up to n = 100,000
    python benchmarks/bench_bagged.py --full --scale   # plus n = 10^6
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.bench.paper_data import PAPER_TABLE1
from repro.core.api import select_bandwidth
from repro.core.fastgrid import cv_scores_fastgrid
from repro.core.grid import BandwidthGrid
from repro.data import paper_dgp

ROOT = Path(__file__).resolve().parent.parent

QUICK_SIZES = (2_000, 5_000, 20_000)
FULL_SIZES = QUICK_SIZES + (50_000, 100_000)

#: Table I's bandwidth-grid size — keeps every overlay apples-to-apples.
K = 50

ROOT_SEED = 0


def _exact_rows_from_blockwise() -> dict[int, dict]:
    """(n -> {seconds, h_opt}) from the committed blocked-sweep artifact."""
    path = ROOT / "BENCH_blockwise.json"
    if not path.exists():
        return {}
    rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
    return {
        int(row["n"]): {"seconds": row["seconds"], "h_opt": row["h_opt"]}
        for row in rows
        if int(row["k"]) == K
    }


def _exact_live(x: np.ndarray, y: np.ndarray) -> dict:
    grid = BandwidthGrid.for_sample(x, K).values
    start = time.perf_counter()
    scores = cv_scores_fastgrid(x, y, grid, "epanechnikov")
    seconds = time.perf_counter() - start
    best = int(np.argmin(scores))
    return {"seconds": round(seconds, 3), "h_opt": float(grid[best])}


def run_one(n: int, exact_table: dict[int, dict], *, live_exact: bool) -> dict:
    sample = paper_dgp(n, seed=0)

    start = time.perf_counter()
    result = select_bandwidth(
        sample.x, sample.y, method="bagged", n_bandwidths=K, root_seed=ROOT_SEED
    )
    seconds = time.perf_counter() - start

    exact: dict | None = None
    exact_source = None
    if n in exact_table:
        exact = exact_table[n]
        exact_source = "BENCH_blockwise.json"
    elif live_exact:
        exact = _exact_live(sample.x, sample.y)
        exact_source = "live"

    bag = result.diagnostics["bagged"]
    row = {
        "n": n,
        "k": K,
        "kernel": "epanechnikov",
        "root_seed": ROOT_SEED,
        "subsample_size": bag["subsample_size"],
        "n_subsamples": bag["n_subsamples"],
        "scale_factor": bag["scale_factor"],
        "seconds": round(seconds, 3),
        "h_opt": result.bandwidth,
        "mean_subsample_cv": result.score,
        # Published Table I seconds at this n (empty beyond the paper's
        # n = 20,000 device-memory wall).
        "paper_table1_seconds": dict(PAPER_TABLE1.get(n, {})),
    }
    if exact is not None:
        row["exact_seconds"] = exact["seconds"]
        row["exact_h_opt"] = exact["h_opt"]
        row["exact_source"] = exact_source
        row["speedup"] = round(exact["seconds"] / max(seconds, 1e-9), 1)
        row["rel_error"] = abs(result.bandwidth - exact["h_opt"]) / exact["h_opt"]
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="sweep up to n = 100,000 (the headline acceptance row)",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="append an n = 10^6 row (no exact overlay exists there)",
    )
    parser.add_argument(
        "--live-exact", action="store_true",
        help="measure the exact blocked sweep live when no committed "
        "BENCH_blockwise.json row covers an n (slow at large n)",
    )
    parser.add_argument(
        "--output",
        default=str(ROOT / "BENCH_bagged.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()

    sizes = FULL_SIZES if args.full else QUICK_SIZES
    if args.scale:
        sizes = sizes + (1_000_000,)
    exact_table = _exact_rows_from_blockwise()

    rows = []
    for n in sizes:
        row = run_one(n, exact_table, live_exact=args.live_exact)
        rows.append(row)
        speed = (
            f"speedup={row['speedup']:>7.1f}x  rel_err={row['rel_error']:.2e}"
            if "speedup" in row
            else "exact: n/a"
        )
        print(
            f"n={n:>9,}  r={row['n_subsamples']:>3}  m={row['subsample_size']:>5}  "
            f"time={row['seconds']:>8.2f}s  h_opt={row['h_opt']:.6f}  {speed}",
            flush=True,
        )

    document = {
        "suite": "bagged-selection",
        "note": (
            "Bagged subsampled-CV selection (arXiv:2105.04134 estimator, "
            "fast sorted grid search inner loop) on the paper DGP, "
            "k = 50 grid, default plan (m ~ min(n^0.7, 5000), r = 20, "
            "root seed 0). Exact columns reuse BENCH_blockwise.json "
            "(same DGP/seed/grid) unless measured --live-exact. "
            "Acceptance: speedup >= 10x and rel_error <= 0.05 at "
            "n = 100,000. h ~ n^(-1/5) grid-matched rescaling means "
            "every subsample votes for an exact full-grid point, so "
            "rel_error measures grid-point agreement, not float drift."
        ),
        "rows": rows,
    }
    Path(args.output).write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
