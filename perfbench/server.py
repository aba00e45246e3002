"""Benchmark-owned launcher for the stock serving app (served-mix workload).

::

    python3 -m perfbench.server --stats FILE [--trace 1] [--cpu N]

It serves a :class:`repro.serving.server.ServingApp` with the default
:class:`ServingConfig` on an OS-chosen localhost port, through the stock
``serve_forever`` (which prints ``repro serving on http://HOST:PORT``).
On SIGTERM the stock server drains; the launcher then writes its peak RSS
and, with ``--trace 1``, its span totals to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, help="pin the server to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.serving.server import ServingApp, ServingConfig, serve_forever

    rec = None
    if args.trace:
        from perfbench import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
        tracing.install_serving(rec)

    code = serve_forever(ServingApp(ServingConfig(port=0)))
    stats = {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": rec.summary() if rec is not None else None,
    }
    Path(args.stats).write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
