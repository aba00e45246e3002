"""Resilient selection: surviving crashes, resuming mid-sweep, degrading.

The CV objective decomposes into per-row-block partial sums, so the
sweep can absorb worker crashes, resume after a hard stop, and fall
back down the backend chain without changing a single bit of the
answer.  This example demonstrates all three, using the deterministic
fault injector the chaos suite runs on:

* a blocked-shm (multi-core) sweep under injected worker crashes — same bandwidth,
  bit for bit, with the absorbed faults itemised in the report;
* a "power cut" mid-sweep — the retry budget dies, the checkpoint
  survives, and a second run resumes the finished blocks from disk;
* the 4 GB device-memory wall — the gpusim backend dies on
  ``cudaMalloc`` and the engine degrades to the tiled out-of-core
  variant (§V future work) with the bandwidth intact.

Run:  python examples/resilient_selection.py
"""

import tempfile
from pathlib import Path

from repro import select_bandwidth
from repro.data import sine_dgp
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    RetryBudgetExceeded,
    RetryPolicy,
    inject_faults,
)
from repro.resilience.engine import ResilienceConfig, resilient_cv_scores


def crash_storm(x, y) -> None:
    print("=== 1. worker crashes on the blocked-shm backend ===")
    clean = select_bandwidth(x, y, backend="blocked-shm", resilience=True)

    storm = FaultInjector(
        [
            FaultSpec(site="pool.worker", kind="crash", at=(1,)),
            FaultSpec(site="data.block", kind="nan", at=(6,)),
        ],
        seed=7,
    )
    with inject_faults(storm):
        survived = select_bandwidth(x, y, backend="blocked-shm", resilience=True)

    same = survived.bandwidth == clean.bandwidth
    print(f"clean run    : h* = {clean.bandwidth:.6f}")
    print(f"chaotic run  : h* = {survived.bandwidth:.6f}  (bitwise equal: {same})")
    print(survived.resilience.summary(), "\n")


def resume_after_crash(x, y, grid, ckpt: Path) -> None:
    print("=== 2. power cut mid-sweep, then resume ===")
    # One block is doomed: the sweep has 7 blocks, so draw 2 poisons the
    # third block in the first wave and draw 7 poisons its only retry —
    # the run dies, but every *finished* block has already been
    # checkpointed atomically.
    doomed = FaultInjector(
        [FaultSpec(site="data.block", kind="nan", at=(2, 7))], seed=0
    )
    config = ResilienceConfig(
        policy=RetryPolicy(max_retries=1, base_delay=0.0),
        checkpoint=ckpt,
        keep_checkpoint=True,
    )
    with inject_faults(doomed):
        try:
            resilient_cv_scores(x, y, grid, backend="numpy", config=config)
        except RetryBudgetExceeded as exc:
            print(f"first run died: {exc}")
    print(f"checkpoint survives: {ckpt.exists()}")

    # The re-run replays the finished blocks from disk and only computes
    # the one that never landed.
    config = ResilienceConfig(checkpoint=ckpt)
    scores, report = resilient_cv_scores(
        x, y, grid, backend="numpy", config=config
    )
    print(
        f"resumed run: {report.blocks_resumed}/{report.blocks_total} blocks "
        f"replayed from disk, h* = {grid[scores.argmin()]:.6f}\n"
    )


def degrade_past_the_memory_wall(x, y) -> None:
    print("=== 3. the 4 GB wall: gpusim -> gpusim-tiled ===")
    oom = FaultInjector(
        [FaultSpec(site="gpusim.malloc", kind="oom", at=(0,))], seed=0
    )
    with inject_faults(oom):
        result = select_bandwidth(x, y, backend="gpusim", resilience=True)
    rep = result.resilience
    trail = " -> ".join(
        f"{a['backend']}({a['outcome']})" for a in rep.backend_attempts
    )
    print(f"attempts: {trail}")
    print(f"degraded to {rep.backend_used}: h* = {result.bandwidth:.6f}\n")


def main() -> None:
    sample = sine_dgp(n=400, seed=3)
    x, y = sample.x, sample.y

    crash_storm(x, y)

    import numpy as np

    grid = np.linspace(0.005, 0.3, 40)
    with tempfile.TemporaryDirectory() as tmp:
        resume_after_crash(x, y, grid, Path(tmp) / "sweep.ckpt.npz")

    degrade_past_the_memory_wall(x, y)


if __name__ == "__main__":
    main()
