"""Resilient selection: surviving crashes, running out of retries, degrading.

The resilient engine calls the registered backend whole: a transient
fault re-runs the sweep, and a backend that cannot finish hands over to
the next one on its fallback chain.  Every curve it returns is the bits
of the backend that finished it.  This example demonstrates all three,
using the deterministic fault injector the chaos suite runs on:

* a blocked-shm (multi-core) sweep under injected worker crashes — same bandwidth,
  bit for bit, with the absorbed faults itemised in the report;
* a worker that dies on every call — the retry budget runs out and the
  sweep degrades to the serial numpy backend, whose curve is the clean
  one byte for byte;
* the 4 GB device-memory wall — the gpusim backend dies on
  ``cudaMalloc`` and the engine degrades to the tiled out-of-core
  variant (§V future work) with the bandwidth intact.

Run:  python examples/resilient_selection.py
"""

import numpy as np

from repro import select_bandwidth
from repro.data import sine_dgp
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import ResilienceConfig, resilient_cv_scores


def crash_storm(x, y) -> None:
    print("=== 1. worker crashes on the blocked-shm backend ===")
    clean = select_bandwidth(x, y, backend="blocked-shm", resilience=True)

    storm = FaultInjector(
        [
            FaultSpec(site="pool.worker", kind="crash", at=(1,)),
            FaultSpec(site="data.block", kind="nan", at=(0,)),
        ],
        seed=7,
    )
    with inject_faults(storm):
        survived = select_bandwidth(x, y, backend="blocked-shm", resilience=True)

    same = survived.bandwidth == clean.bandwidth
    print(f"clean run    : h* = {clean.bandwidth:.6f}")
    print(f"chaotic run  : h* = {survived.bandwidth:.6f}  (bitwise equal: {same})")
    print(survived.resilience.summary(), "\n")


def retries_run_out(x, y, grid) -> None:
    print("=== 2. every worker keeps dying: blocked-shm -> numpy ===")
    dying = FaultInjector(
        [FaultSpec(site="pool.worker", kind="crash", rate=1.0)], seed=0
    )
    config = ResilienceConfig(max_retries=1)
    with inject_faults(dying):
        scores, report = resilient_cv_scores(
            x, y, grid, backend="blocked-shm", config=config
        )
    clean, _ = resilient_cv_scores(x, y, grid, backend="numpy")
    trail = " -> ".join(
        f"{a['backend']}({a['outcome']})" for a in report.backend_attempts
    )
    print(f"attempts: {trail}")
    print(
        f"h* = {grid[scores.argmin()]:.6f}, the clean numpy curve byte for "
        f"byte: {scores.tobytes() == clean.tobytes()}\n"
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
    retries_run_out(x, y, np.linspace(0.005, 0.3, 40))
    degrade_past_the_memory_wall(x, y)


if __name__ == "__main__":
    main()
