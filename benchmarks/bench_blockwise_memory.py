"""Budgeted blocked sweep: runtime and memory vs n, past the wall.

The paper's Table I stops at n = 20,000 because the CUDA program's two
n-by-n float32 matrices exhaust the 4 GB Tesla (Section IV-A).  The
``numpy`` backend walks row blocks sized by the one sizing rule
(:func:`repro.core.fastgrid.plan_fastgrid_blocks`) and never
materialises anything n-by-n, so this benchmark
walks straight past that boundary — up to n = 100,000 with ``--full`` —
while holding the whole sweep inside one byte budget.

For every size it records:

* wall-clock seconds of the full k-bandwidth sweep;
* the planner's ``predicted_peak_bytes`` and the *measured* tracemalloc
  peak (the honesty check the test suite enforces at 1.5x);
* the process RSS high-water mark (``ru_maxrss``) as OS-level evidence;
* the paper's Table I run times at the same n, where they exist, as the
  overlay (every published row has one; the beyond-the-wall rows are
  exactly the cells the paper could not print).

Writes ``BENCH_blockwise.json`` at the repository root::

    python benchmarks/bench_blockwise_memory.py            # quick sizes
    python benchmarks/bench_blockwise_memory.py --full     # up to 100,000
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.bench.paper_data import PAPER_TABLE1
from repro.core.fastgrid import cv_scores_fastgrid, plan_fastgrid_blocks
from repro.core.grid import BandwidthGrid
from repro.data import paper_dgp
from repro.utils.membudget import parse_byte_budget

QUICK_SIZES = (2_000, 5_000, 20_000)
FULL_SIZES = QUICK_SIZES + (50_000, 100_000)

#: Table I's bandwidth-grid size — keeps the overlay apples-to-apples.
K = 50


def _rss_kib() -> int:
    """Process RSS high-water mark in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_one(n: int, budget: str, kernel: str = "epanechnikov") -> dict:
    sample = paper_dgp(n, seed=0)
    grid = BandwidthGrid.for_sample(sample.x, K).values
    plan = plan_fastgrid_blocks(n, grid, kernel, memory_budget=budget)

    tracemalloc.start()
    start = time.perf_counter()
    try:
        scores = cv_scores_fastgrid(
            sample.x, sample.y, grid, kernel, memory_budget=budget
        )
        seconds = time.perf_counter() - start
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    best = int(np.argmin(scores))
    return {
        "n": n,
        "k": K,
        "kernel": kernel,
        "budget_bytes": parse_byte_budget(budget),
        "block_rows": plan.block_rows,
        "n_blocks": plan.n_blocks,
        "predicted_peak_bytes": plan.predicted_peak_bytes,
        "tracemalloc_peak_bytes": int(traced_peak),
        "peak_within_prediction": bool(
            traced_peak <= 1.5 * plan.predicted_peak_bytes
        ),
        "rss_high_water_kib": _rss_kib(),
        "seconds": round(seconds, 3),
        "h_opt": float(grid[best]),
        "cv_at_h_opt": float(scores[best]),
        # Published Table I seconds at this n (empty beyond the wall —
        # those are the rows the paper's hardware could not produce).
        "paper_table1_seconds": dict(PAPER_TABLE1.get(n, {})),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="sweep up to n = 100,000 (several minutes of sorting)",
    )
    parser.add_argument(
        "--budget", default="2GiB",
        help="byte budget for every sweep (default: 2GiB)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_blockwise.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()

    sizes = FULL_SIZES if args.full else QUICK_SIZES
    rows = []
    for n in sizes:
        row = run_one(n, args.budget)
        rows.append(row)
        print(
            f"n={n:>7,}  blocks={row['n_blocks']:>5}  "
            f"time={row['seconds']:>8.2f}s  "
            f"tracemalloc_peak={row['tracemalloc_peak_bytes'] / 1024**2:>7.1f} MiB  "
            f"rss_hwm={row['rss_high_water_kib'] / 1024:>7.1f} MiB  "
            f"h_opt={row['h_opt']:.5f}",
            flush=True,
        )

    document = {
        "suite": "blockwise-memory",
        "budget": args.budget,
        "note": (
            "Out-of-core blocked sweep on the paper DGP, k = 50 "
            "(Table I's grid size). rss_high_water_kib is the process "
            "lifetime maximum, so later rows inherit earlier peaks; "
            "tracemalloc_peak_bytes is per-run. The paper's Table I "
            "stops at n = 20,000 (4 GB device OOM); rows beyond it have "
            "no published overlay by construction."
        ),
        "rows": rows,
    }
    Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
