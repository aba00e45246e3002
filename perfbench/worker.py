"""The library-path program of the exact-8k and bagged-100k workloads.

It runs in a fresh interpreter, so its set-up time and peak RSS are its
own::

    python3 -m perfbench.worker --workload exact-8k --inputs FILE.npz --setup-only
    python3 -m perfbench.worker --workload exact-8k --inputs FILE.npz --seconds 20

It imports ``repro``, loads the inputs and runs one untimed warm-up
selection on a small slice of them, so lazy imports and first-call set-up
land in set-up time rather than in the first timed selection.  Then it
prints ``READY``; ``--setup-only`` stops there.  Otherwise it prints one
``RESULT <json>`` line with each selection's answer and wall time.  With
``--trace 1`` selections come in pairs on the same dataset, the second of
each pair with the benchmark's spans installed, so the untraced first
gives the time the trace overhead is measured against.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

#: Points of the untimed warm-up selection.
WARMUP_N = 1_000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exact-8k", "bagged-100k"))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--min-ops", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np

    import repro
    from perfbench import tracing, workloads
    from repro.core.grid import BandwidthGrid

    with np.load(args.inputs) as data:
        xs, ys = data["x"], data["y"]
    grid = BandwidthGrid.evenly_spaced(*workloads.INTERIOR_GRID)
    options: dict = {"grid": grid}
    if args.workload == "bagged-100k":
        options.update(method="bagged", root_seed=args.root_seed)
    repro.select_bandwidth(xs[0, :WARMUP_N], ys[0, :WARMUP_N], **options)

    print("READY", flush=True)
    if args.setup_only:
        return 0

    rec = tracing.Recorder() if args.trace else None
    ops: list[dict] = []
    started = time.perf_counter()
    while (
        len(ops) < args.min_ops
        or time.perf_counter() - started < args.seconds
        or (rec is not None and len(ops) % 2 == 1)
    ):
        pair, second = divmod(len(ops), 2) if rec is not None else (len(ops), 0)
        index = pair % xs.shape[0]
        traced = second == 1
        installed = tracing.install(rec) if traced else None
        t0 = time.perf_counter()
        try:
            result = repro.select_bandwidth(xs[index], ys[index], **options)
        except Exception as exc:  # repro-lint: disable=ROB001 -- every failure counts against error_rate
            ops.append({"index": index, "traced": traced,
                        "seconds": time.perf_counter() - t0,
                        "error": f"{type(exc).__name__}: {exc}"})
        else:
            ops.append({"index": index, "traced": traced,
                        "seconds": time.perf_counter() - t0,
                        "h_opt": result.bandwidth, "score": result.score})
        finally:
            if installed is not None:
                installed.restore()

    out = {
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": rec.summary() if rec is not None else None,
    }
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
