"""Host roofline calibration: measured streaming bandwidth vs achieved.

The paper's performance argument is a roofline argument in disguise: the
CUDA program wins not by arithmetic but by memory bandwidth, and its
uncoalesced access pattern caps it at a small fraction of the Tesla's
peak (Section IV).  This benchmark makes the *host* side of that story
measurable.  It ports the classic STREAM copy/scale/add/triad
microbenchmark (the ``memory_bandwidth`` idiom from the reframe test
suite) to numpy:

* ``copy``   b[:] = a            (2 x nbytes moved)
* ``scale``  b[:] = s * a        (2 x nbytes)
* ``add``    c[:] = a + b        (3 x nbytes)
* ``triad``  c[:] = a + s * b    (3 x nbytes)

each timed best-of-``repeats`` (best, not mean: transient interference
only ever *lowers* a bandwidth sample), and records the peak into
``BENCH_roofline.json``.  It then runs a real fast-grid sweep and
reports the *achieved* fraction of that peak, using the membudget
planner's traffic model as the numerator — the same calibrated constant
(:mod:`repro.utils.calibration`) the planner's ``estimate_sweep_seconds``
and the gpusim timing model's host-transfer phases consume, so predicted
and measured figures share one source of truth.

Writes ``BENCH_roofline.json`` at the repository root::

    python benchmarks/bench_roofline.py            # quick (~16 MiB arrays)
    python benchmarks/bench_roofline.py --full     # ~256 MiB arrays
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.bench.paper_data import PAPER_TABLE1
from repro.core.fastgrid import cv_scores_fastgrid
from repro.core.grid import BandwidthGrid
from repro.data import paper_dgp
from repro.utils.calibration import calibration_source
from repro.utils.membudget import plan_blocks

ROOT = Path(__file__).resolve().parent.parent

#: STREAM array size: quick keeps a full run in seconds; --full uses
#: arrays far beyond any cache so the figure is genuinely DRAM-bound.
QUICK_ELEMENTS = 2 * 1024**2  # 16 MiB per float64 array
FULL_ELEMENTS = 32 * 1024**2  # 256 MiB per float64 array

#: Table I's bandwidth-grid size — keeps the sweep overlay apples-to-apples.
K = 50

#: STREAM's byte accounting: arrays touched per kernel iteration.
_STREAM_ARRAYS = {"copy": 2, "scale": 2, "add": 3, "triad": 3}


def measure_streams(elements: int, repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` STREAM rates (bytes/s) for the four kernels."""
    rng = np.random.default_rng(0)
    a = rng.random(elements)
    b = np.empty_like(a)
    c = np.empty_like(a)
    s = 3.0
    kernels = {
        "copy": lambda: np.copyto(b, a),
        "scale": lambda: np.multiply(a, s, out=b),
        "add": lambda: np.add(a, b, out=c),
        "triad": lambda: np.add(a, s * b, out=c),
    }
    rates: dict[str, float] = {}
    for name, kernel in kernels.items():
        nbytes = _STREAM_ARRAYS[name] * a.nbytes
        best = 0.0
        kernel()  # warm the pages before timing
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            seconds = time.perf_counter() - start
            best = max(best, nbytes / seconds)
        rates[name] = best
    return rates


def measure_sweep(n: int, kernel: str = "epanechnikov") -> dict:
    """One fast-grid sweep with the planner's traffic model as numerator."""
    sample = paper_dgp(n, seed=0)
    grid = BandwidthGrid.for_sample(sample.x, K).values
    # The traffic model (n rows × bytes per row) does not depend on the
    # budget; any budget that holds one row will do.
    plan = plan_blocks(n, K, budget=1024**3)
    start = time.perf_counter()
    scores = cv_scores_fastgrid(sample.x, sample.y, grid, kernel)
    seconds = time.perf_counter() - start
    best = int(np.argmin(scores))
    return {
        "n": n,
        "k": K,
        "kernel": kernel,
        "seconds": round(seconds, 4),
        "modelled_traffic_bytes": plan.predicted_traffic_bytes,
        "achieved_bytes_per_second": plan.predicted_traffic_bytes / seconds,
        "h_opt": float(grid[best]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="use ~256 MiB STREAM arrays (DRAM-bound beyond any cache)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="best-of-N samples per STREAM kernel (default: 5)",
    )
    parser.add_argument(
        "--sweep-n", type=int, default=5000,
        help="fast-grid sweep size for the achieved-fraction row",
    )
    parser.add_argument(
        "--output",
        default=str(ROOT / "BENCH_roofline.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()

    elements = FULL_ELEMENTS if args.full else QUICK_ELEMENTS
    streams = measure_streams(elements, args.repeats)
    peak = max(streams.values())
    for name, rate in streams.items():
        print(f"{name:<6} {rate / 1e9:>8.2f} GB/s", flush=True)
    print(f"peak   {peak / 1e9:>8.2f} GB/s")

    sweep = measure_sweep(args.sweep_n)
    sweep["achieved_fraction_of_peak"] = sweep["achieved_bytes_per_second"] / peak
    print(
        f"sweep n={sweep['n']:,} k={K}: {sweep['seconds']:.2f}s, "
        f"{sweep['achieved_bytes_per_second'] / 1e9:.2f} GB/s modelled "
        f"({100 * sweep['achieved_fraction_of_peak']:.1f}% of peak)"
    )

    document = {
        "suite": "roofline",
        "note": (
            "Host STREAM copy/scale/add/triad bandwidth (best-of-"
            f"{args.repeats}, {elements * 8 // 1024**2} MiB arrays) and the "
            "fast-grid sweep's achieved fraction of the measured peak, "
            "with the membudget planner's traffic model as numerator. "
            "host.peak_bytes_per_second is the figure "
            "repro.utils.calibration serves to the membudget sweep-time "
            "estimate and the gpusim timing model. Table I overlay: "
            "published seconds at the sweep size, for scale; the paper's "
            "hardware (2017 Tesla S1070 host) is not this host."
        ),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "stream_elements": elements,
            "repeats": args.repeats,
            "streams": streams,
            "peak_bytes_per_second": peak,
        },
        "sweep": sweep,
        "calibration": {
            # What the consumers would resolve *after* this artifact lands
            # in the CWD: "roofline" once written, "default" before.
            "source_before_artifact": calibration_source(),
            "peak_bytes_per_second": peak,
        },
        "table1_overlay": {
            "n": args.sweep_n,
            "paper_seconds": dict(PAPER_TABLE1.get(args.sweep_n, {})),
        },
    }
    Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
