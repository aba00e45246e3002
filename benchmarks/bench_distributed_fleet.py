"""Distributed fleet sweep: speedup and recovery overhead vs local.

Two questions the DESIGN.md §13 claims leave open:

* what does sharding the sweep over worker *processes* actually buy
  (or cost) against the single-process ``numpy`` backend at the same
  block partition — staging, JSON framing, and the ordered fold are
  all overhead the paper's in-device reduction does not pay;
* what does *recovery* cost — the same sweep with a seeded fault storm
  (drops, hangs, duplicates, corrupt payloads) relative to a clean run
  on an identical fleet.

Every timed run is checked bit-for-bit against the local reference
before its time is recorded; a distributed "speedup" that changed the
curve would be a bug, not a result.

Writes ``BENCH_distributed.json`` at the repository root::

    python benchmarks/bench_distributed_fleet.py            # quick sizes
    python benchmarks/bench_distributed_fleet.py --full     # larger n
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.fastgrid import cv_scores_fastgrid
from repro.core.grid import BandwidthGrid
from repro.data import paper_dgp
from repro.distributed import (
    ChaosTransport,
    CoordinatorConfig,
    FleetCoordinator,
    InProcessFleet,
    InProcessTransport,
    LocalProcessFleet,
    WorkerApp,
)
from repro.distributed.chaos import seeded_compute_faults
from repro.resilience.policy import RetryPolicy

QUICK_SIZES = (2_000, 5_000)
FULL_SIZES = QUICK_SIZES + (10_000, 20_000)
WORKER_COUNTS = (1, 2, 4)
K = 50
BLOCK_ROWS = 512
CHAOS_SEED = 0


def _config() -> CoordinatorConfig:
    return CoordinatorConfig(
        policy=RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0),
        lease_timeout=60.0,
        request_timeout=60.0,
        stage_timeout=60.0,
        heartbeat_interval=5.0,
    )


def _timed_fleet_sweep(fleet, x, y, grid, reference) -> tuple[float, dict]:
    coord = FleetCoordinator(fleet, _config())
    start = time.perf_counter()
    scores = coord.cv_scores(x, y, grid, "epanechnikov", block_rows=BLOCK_ROWS)
    seconds = time.perf_counter() - start
    if not np.array_equal(scores, reference):
        raise AssertionError("distributed sweep diverged from the local sweep")
    return seconds, coord.report.to_dict()


def bench_speedup(n: int) -> dict:
    """Local blocked numpy vs HTTP worker fleets at 1/2/4 processes."""
    sample = paper_dgp(n, seed=0)
    grid = BandwidthGrid.for_sample(sample.x, K).values

    start = time.perf_counter()
    reference = cv_scores_fastgrid(
        sample.x, sample.y, grid, "epanechnikov", block_rows=BLOCK_ROWS
    )
    local_s = time.perf_counter() - start

    fleets = []
    for workers in WORKER_COUNTS:
        fleet = LocalProcessFleet(workers)
        try:
            seconds, report = _timed_fleet_sweep(
                fleet, sample.x, sample.y, grid, reference
            )
        finally:
            fleet.close()
        fleets.append(
            {
                "workers": workers,
                "seconds": seconds,
                "speedup_vs_local": local_s / seconds,
                "blocks_remote": report["blocks_remote"],
                "blocks_total": report["blocks_total"],
            }
        )
    return {
        "n": n,
        "k": K,
        "block_rows": BLOCK_ROWS,
        "local_blocked_seconds": local_s,
        "fleets": fleets,
        "bit_identical": True,
    }


def _chaos_fleet(n_workers: int, *, faulted: bool) -> InProcessFleet:
    transports = []
    for i in range(n_workers):
        worker_id = f"w{i}"
        inner = InProcessTransport(
            WorkerApp(worker_id=worker_id), endpoint=worker_id
        )
        specs = (
            seeded_compute_faults(
                CHAOS_SEED,
                worker_id,
                n_blocks=64,
                kinds=("drop", "hang", "duplicate", "corrupt"),
                rate=0.3,
            )
            if faulted
            else ()
        )
        transports.append(ChaosTransport(inner, specs))
    return InProcessFleet(transports)


def bench_recovery_overhead(n: int) -> dict:
    """Clean vs seeded-fault-storm sweep on identical in-process fleets.

    In-process (not subprocess) so the measured delta is the *recovery
    machinery* — retries, epoch discards, checksum rejects — rather
    than process scheduling noise.
    """
    sample = paper_dgp(n, seed=0)
    grid = BandwidthGrid.for_sample(sample.x, K).values
    reference = cv_scores_fastgrid(
        sample.x, sample.y, grid, "epanechnikov", block_rows=BLOCK_ROWS
    )

    clean_s, _ = _timed_fleet_sweep(
        _chaos_fleet(3, faulted=False), sample.x, sample.y, grid, reference
    )
    chaos_s, report = _timed_fleet_sweep(
        _chaos_fleet(3, faulted=True), sample.x, sample.y, grid, reference
    )
    return {
        "n": n,
        "k": K,
        "block_rows": BLOCK_ROWS,
        "workers": 3,
        "chaos_seed": CHAOS_SEED,
        "clean_seconds": clean_s,
        "faulted_seconds": chaos_s,
        "recovery_overhead_x": chaos_s / clean_s,
        "retries": report["retries"],
        "duplicates_discarded": report["duplicates_discarded"],
        "checksum_rejects": report["checksum_rejects"],
        "fault_codes": report["fault_codes"],
        "bit_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="sweep the paper-scale sizes"
    )
    parser.add_argument(
        "--output", default="BENCH_distributed.json", help="output path"
    )
    args = parser.parse_args()
    sizes = FULL_SIZES if args.full else QUICK_SIZES

    speedup = []
    for n in sizes:
        row = bench_speedup(n)
        speedup.append(row)
        best = max(row["fleets"], key=lambda f: f["speedup_vs_local"])
        print(
            f"n={n:>6}: local {row['local_blocked_seconds']:.3f}s, best fleet "
            f"{best['workers']}w {best['seconds']:.3f}s "
            f"({best['speedup_vs_local']:.2f}x)"
        )

    recovery = bench_recovery_overhead(sizes[0])
    print(
        f"recovery overhead @ n={recovery['n']}: "
        f"{recovery['recovery_overhead_x']:.2f}x "
        f"({recovery['retries']} retries, "
        f"{recovery['checksum_rejects']} checksum rejects)"
    )

    payload = {
        "benchmark": "distributed_fleet",
        "speedup": speedup,
        "recovery": recovery,
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
