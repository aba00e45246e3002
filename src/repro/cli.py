"""Command-line interface: ``python -m repro`` / ``repro-bench``.

Subcommands regenerate the paper's artifacts and inspect the library:

* ``table1`` — Table I (run times by program and sample size)
* ``table2`` — Table II (run times by bandwidth count, both panels)
* ``fig1``   — Figure 1 (same sweep, ASCII log–log chart)
* ``shape``  — run Table I (+ optionally Table II) and verify the
  paper's shape claims
* ``select`` — one bandwidth selection on a chosen DGP
* ``trace``  — run a traced selection; print the span tree and write a
  Chrome trace-event JSON (load in chrome://tracing or Perfetto)
* ``serve``  — JSON-over-HTTP bandwidth-selection service (fingerprint
  cache, micro-batched predict, /metrics)
* ``workers`` — run a local fleet of sweep workers for
  ``select --backend distributed`` (or probe a running fleet)
* ``info``   — registered kernels, backends, devices, programs, serving
  cache status
* ``lint``   — project-aware static analysis (also ``repro-lint``)
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

#: ``--backend`` choices shared by ``select``, ``trace`` and ``serve``.
BACKEND_CHOICES = (
    "numpy", "python", "blocked-shm", "gpusim", "gpusim-tiled", "distributed",
)


def _parse_sizes(text: str | None) -> tuple[int, ...] | None:
    if not text:
        return None
    return tuple(int(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for the tests)."""
    from repro.resilience.degrade import DEFAULT_FALLBACK_CHAIN

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce Rohlfs & Zahran (IPPS 2017): optimal "
        "bandwidth selection via fast grid search and a (simulated) GPU.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated sample sizes (default: quick subset; "
        "set REPRO_BENCH_FULL=1 for the paper's full list)",
    )
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--repetitions",
        type=int,
        default=1,
        help="timed repetitions per cell (paper protocol: 5)",
    )
    common.add_argument(
        "--output",
        type=str,
        default=None,
        help="directory to write CSV/JSON artifacts into",
    )

    t1 = sub.add_parser("table1", parents=[common], help="regenerate Table I")
    t1.add_argument("--k", type=int, default=50, help="bandwidth-grid size")
    t1.add_argument(
        "--programs",
        type=str,
        default="racine-hayfield,multicore-r,sequential-c,cuda-gpu",
    )

    t2 = sub.add_parser("table2", parents=[common], help="regenerate Table II")
    t2.add_argument(
        "--bandwidths",
        type=str,
        default="5,10,50,100,500,1000,2000",
        help="comma-separated bandwidth counts",
    )

    f1 = sub.add_parser("fig1", parents=[common], help="regenerate Figure 1")
    f1.add_argument("--k", type=int, default=50)

    shape = sub.add_parser(
        "shape", parents=[common], help="verify the paper's shape claims"
    )
    shape.add_argument("--k", type=int, default=50)
    shape.add_argument(
        "--with-table2", action="store_true", help="include the Table II sweep"
    )

    sel = sub.add_parser("select", help="run one bandwidth selection")
    sel.add_argument("--dgp", type=str, default="paper")
    sel.add_argument(
        "--data",
        type=str,
        default=None,
        help="CSV file of (x, y) observations; overrides --dgp/--n",
    )
    sel.add_argument("--n", type=int, default=1000)
    sel.add_argument("--k", type=int, default=50)
    sel.add_argument("--kernel", type=str, default="epanechnikov")
    sel.add_argument(
        "--method",
        type=str,
        default="grid",
        choices=["grid", "bagged", "numeric", "rot"],
    )
    sel.add_argument(
        "--backend",
        type=str,
        default="numpy",
        choices=BACKEND_CHOICES,
    )
    sel.add_argument(
        "--workers",
        type=str,
        default=None,
        metavar="N|HOST:PORT,...",
        help="fleet for --backend distributed: a worker count to spawn "
        "locally, or comma-separated endpoints of a running fleet "
        "(default: $REPRO_WORKERS, else lossless local degradation)",
    )
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument(
        "--subsamples",
        type=int,
        default=None,
        metavar="R",
        help="--method bagged: number of seeded subsamples "
        "(default: 20, or 1 when the subsample covers the sample)",
    )
    sel.add_argument(
        "--subsample-size",
        type=int,
        default=None,
        metavar="M",
        help="--method bagged: observations per subsample "
        "(default: min(ceil(n^0.7), 5000))",
    )
    sel.add_argument(
        "--root-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="--method bagged: root seed all subsample draws derive from",
    )
    sel.add_argument(
        "--mem-budget",
        type=str,
        default=None,
        metavar="BYTES",
        help="working-set byte budget for one fast-grid row block of the "
        "numpy, blocked-shm and distributed backends, e.g. '2GB' or "
        "'512MiB' (default: $REPRO_MEM_BUDGET, else unbudgeted)",
    )
    sel.add_argument(
        "--resilient",
        action="store_true",
        help="run on the resilient execution engine (retry, checkpoint, "
        "backend fallback); implied by the other resilience flags",
    )
    sel.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="PATH",
        help="checkpoint file: completed row blocks are saved there and a "
        "re-run with the same path resumes instead of recomputing "
        "(grid method only)",
    )
    sel.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failed block before degrading (default 2)",
    )
    sel.add_argument(
        "--fallback",
        dest="fallback",
        action="store_true",
        default=None,
        help=f"degrade along {' -> '.join(DEFAULT_FALLBACK_CHAIN)} "
        "on device/backend failures (default when resilient)",
    )
    sel.add_argument(
        "--no-fallback",
        dest="fallback",
        action="store_false",
        help="fail instead of degrading to another backend",
    )
    sel.add_argument(
        "--json",
        action="store_true",
        help="emit the full SelectionResult (incl. resilience report) as JSON",
    )
    sel.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="artifact-cache directory: identical re-runs skip the sweep "
        "on fingerprint hit",
    )

    trace = sub.add_parser(
        "trace",
        help="run one traced bandwidth selection; print the phase tree "
        "and write a Chrome trace-event JSON",
    )
    trace.add_argument("--dgp", type=str, default="paper")
    trace.add_argument(
        "--data",
        type=str,
        default=None,
        help="CSV file of (x, y) observations; overrides --dgp/--n",
    )
    trace.add_argument("--n", type=int, default=2000)
    trace.add_argument("--k", type=int, default=50)
    trace.add_argument("--kernel", type=str, default="epanechnikov")
    trace.add_argument(
        "--method", type=str, default="grid", choices=["grid", "numeric", "rot"]
    )
    trace.add_argument(
        "--backend",
        type=str,
        default="numpy",
        choices=BACKEND_CHOICES,
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--output",
        type=str,
        default="trace.json",
        metavar="PATH",
        help="where to write the Chrome trace-event JSON "
        "(pass '-' to skip the file)",
    )
    trace.add_argument(
        "--resilient",
        action="store_true",
        help="run on the resilient execution engine (adds wave/retry spans)",
    )

    srv = sub.add_parser(
        "serve",
        help="serve bandwidth selection over HTTP (cache + micro-batching)",
    )
    srv.add_argument("--host", type=str, default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8173,
        help="TCP port (0 = let the OS pick; the bound port is printed)",
    )
    srv.add_argument(
        "--dgp", type=str, default="paper",
        help="DGP for the startup 'default' model (skipped with --no-model)",
    )
    srv.add_argument("--data", type=str, default=None,
                     help="CSV of (x, y) for the startup model; overrides --dgp")
    srv.add_argument("--n", type=int, default=1000)
    srv.add_argument("--k", type=int, default=50)
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--kernel", type=str, default="epanechnikov")
    srv.add_argument(
        "--backend",
        type=str,
        default="numpy",
        choices=BACKEND_CHOICES,
    )
    srv.add_argument(
        "--no-model",
        action="store_true",
        help="start without fitting the default model",
    )
    srv.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="disk tier for the artifact cache (default: memory only)",
    )
    srv.add_argument("--max-batch-size", type=int, default=32)
    srv.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="how long an open batch waits for co-travellers",
    )
    srv.add_argument(
        "--max-queue", type=int, default=256,
        help="admission bound; beyond this requests get HTTP 429",
    )
    srv.add_argument(
        "--no-resilience",
        action="store_true",
        help="do not degrade failed selections down the backend chain",
    )

    wrk = sub.add_parser(
        "workers",
        help="run a local fleet of sweep workers (for --backend "
        "distributed), or probe a running one",
    )
    wrk.add_argument(
        "--count", type=int, default=2,
        help="how many worker processes to spawn",
    )
    wrk.add_argument(
        "--probe",
        type=str,
        default=None,
        metavar="HOST:PORT,...",
        help="heartbeat the given endpoints instead of spawning; exit 0 "
        "only if every worker answers /healthz",
    )

    sub.add_parser(
        "info",
        help="list kernels, backends, devices, programs, serving cache",
    )

    lint = sub.add_parser(
        "lint", help="run the repro-lint static-analysis pass"
    )
    lint.add_argument("paths", nargs="*", default=["src"])
    lint.add_argument(
        "-f", "--format", choices=["text", "json", "sarif"], default="text"
    )
    lint.add_argument("-o", "--output", type=str, default=None)
    lint.add_argument("--select", type=str, default=None)
    lint.add_argument("--ignore", type=str, default=None)
    lint.add_argument("--baseline", type=str, default=None)
    lint.add_argument("--update-baseline", type=str, default=None)
    lint.add_argument(
        "--changed",
        action="store_true",
        help="report only files modified in git",
    )
    lint.add_argument("--list-rules", action="store_true")
    return parser


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench import run_table1, shape_report, write_results_json, write_table1_csv

    table = run_table1(
        sizes=_parse_sizes(args.sizes),
        programs=tuple(args.programs.split(",")),
        k=args.k,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    report = shape_report(table)
    print(table.to_text())
    print()
    print(report)
    if args.output:
        from pathlib import Path

        outdir = Path(args.output)
        write_table1_csv(table, outdir / "table1.csv")
        write_results_json(
            outdir / "table1.json", table1=table, shape_report=report
        )
        print(f"\nartifacts written to {outdir}/")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.bench import run_table2, write_results_json, write_table2_csv

    table = run_table2(
        bandwidth_counts=_parse_sizes(args.bandwidths),
        sizes=_parse_sizes(args.sizes),
        repetitions=args.repetitions,
        seed=args.seed,
    )
    print(table.to_text())
    if args.output:
        from pathlib import Path

        outdir = Path(args.output)
        write_table2_csv(table, outdir / "table2.csv")
        write_results_json(outdir / "table2.json", table2=table)
        print(f"\nartifacts written to {outdir}/")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.bench import run_figure1, write_results_json, write_table1_csv

    fig = run_figure1(
        sizes=_parse_sizes(args.sizes),
        k=args.k,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    print(fig.to_text())
    if args.output:
        from pathlib import Path

        outdir = Path(args.output)
        write_table1_csv(fig.table, outdir / "figure1_series.csv")
        write_results_json(outdir / "figure1.json", table1=fig.table)
        print(f"\nartifacts written to {outdir}/")
    return 0


def _cmd_shape(args: argparse.Namespace) -> int:
    from repro.bench import run_table1, run_table2, shape_report

    table1 = run_table1(
        sizes=_parse_sizes(args.sizes),
        k=args.k,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    table2 = None
    if args.with_table2:
        table2 = run_table2(sizes=_parse_sizes(args.sizes), seed=args.seed)
    report = shape_report(table1, table2)
    print(report)
    return 0 if "FAIL" not in report else 1


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.core import bandwidth_to_scale, select_bandwidth
    from repro.data import generate, load_xy_csv

    if args.data:
        x, y = load_xy_csv(args.data)
    else:
        sample = generate(args.dgp, args.n, seed=args.seed)
        x, y = sample.x, sample.y
    method = {
        "grid": "grid",
        "bagged": "bagged",
        "numeric": "numeric",
        "rot": "rule-of-thumb",
    }[args.method]
    kwargs = {}
    if method in ("grid", "bagged"):
        kwargs.update(n_bandwidths=args.k, backend=args.backend)
        if args.mem_budget is not None:
            kwargs["memory_budget"] = args.mem_budget
        if args.backend == "distributed" and args.workers is not None:
            kwargs["workers"] = args.workers
    if method == "bagged":
        kwargs["root_seed"] = args.root_seed
        if args.subsamples is not None:
            kwargs["subsamples"] = args.subsamples
        if args.subsample_size is not None:
            kwargs["subsample_size"] = args.subsample_size
    wants_resilience = (
        args.resilient
        or args.resume is not None
        or args.max_retries is not None
        or args.fallback is not None
    )
    if wants_resilience:
        from repro.resilience import RetryPolicy
        from repro.resilience.engine import ResilienceConfig

        policy = RetryPolicy(
            max_retries=args.max_retries if args.max_retries is not None else 2
        )
        kwargs["resilience"] = ResilienceConfig(
            policy=policy,
            fallback=args.fallback if args.fallback is not None else True,
            keep_checkpoint=args.resume is not None,
        )
        if args.resume is not None:
            kwargs["resume"] = args.resume
    if args.cache_dir is not None:
        from repro.serving import ArtifactCache

        kwargs["cache"] = ArtifactCache(args.cache_dir)
    result = select_bandwidth(x, y, method=method, kernel=args.kernel, **kwargs)
    fleet_report = None
    if method in ("grid", "bagged") and args.backend == "distributed":
        from repro.distributed import last_fleet_report

        fleet_report = last_fleet_report()
    if args.json:
        import json

        payload = result.to_dict()
        payload["scale_factor"] = bandwidth_to_scale(result.bandwidth, x)
        if fleet_report is not None:
            payload["fleet"] = fleet_report.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(result.summary())
    if result.resilience is not None:
        print(result.resilience.summary())
    if fleet_report is not None:
        print(fleet_report.summary())
    print(f"  scale factor  : {bandwidth_to_scale(result.bandwidth, x):.4f} "
          "(h / spread*n^-1/5, np convention)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core import select_bandwidth
    from repro.data import generate, load_xy_csv
    from repro.obs import Tracer, render_tree, write_chrome_trace

    if args.backend in ("gpusim", "gpusim-tiled"):
        import repro.cuda_port  # noqa: F401 - registers the gpusim backends

    if args.data:
        x, y = load_xy_csv(args.data)
    else:
        sample = generate(args.dgp, args.n, seed=args.seed)
        x, y = sample.x, sample.y
    method = {"grid": "grid", "numeric": "numeric", "rot": "rule-of-thumb"}[
        args.method
    ]
    kwargs: dict = {}
    if method == "grid":
        kwargs.update(n_bandwidths=args.k, backend=args.backend)
    if args.resilient:
        kwargs["resilience"] = True

    tracer = Tracer()
    result = select_bandwidth(
        x, y, method=method, kernel=args.kernel, trace=tracer, **kwargs
    )
    print(result.summary())
    print()
    print(render_tree(tracer))
    if args.output and args.output != "-":
        write_chrome_trace(args.output, tracer, process_name="repro")
        print(f"\nchrome trace written to {args.output} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import SchedulerConfig, ServingApp, ServingConfig, serve_forever

    config = ServingConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        predict=SchedulerConfig(
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
        ),
        resilience=not args.no_resilience,
        default_backend=args.backend,
        default_kernel=args.kernel,
        default_n_bandwidths=args.k,
    )
    app = ServingApp(config)
    if not args.no_model:
        from repro.data import generate, load_xy_csv

        if args.data:
            x, y = load_xy_csv(args.data)
        else:
            sample = generate(args.dgp, args.n, seed=args.seed)
            x, y = sample.x, sample.y
        record = app.registry.fit(
            "default",
            x,
            y,
            kernel=args.kernel,
            n_bandwidths=args.k,
            backend=args.backend,
        )
        print(
            f"fitted model 'default' (n={len(x)}, "
            f"h*={record.bandwidth:.6g})",
            flush=True,
        )
    serve_forever(app)
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    from repro.distributed import HttpFleet, LocalProcessFleet

    if args.probe is not None:
        endpoints = [p.strip() for p in args.probe.split(",") if p.strip()]
        fleet = HttpFleet(endpoints)
        fleet.heartbeat(timeout=2.0, miss_threshold=1)
        for handle in fleet.handles:
            state = "up" if handle.alive else "DOWN"
            print(f"  {handle.transport.endpoint:<28} {state}")
        live = fleet.live()
        print(f"{len(live)}/{len(fleet.handles)} workers answering")
        return 0 if len(live) == len(fleet.handles) else 1

    import signal
    import threading

    fleet = LocalProcessFleet(args.count)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        endpoints = ",".join(h.transport.endpoint for h in fleet.handles)
        for handle in fleet.handles:
            print(f"  {handle.worker_id:<12} {handle.transport.endpoint}")
        print(f"export REPRO_WORKERS={endpoints}")
        print("fleet up; Ctrl-C to stop", flush=True)
        stop.wait()
    finally:
        fleet.close()
    print("fleet stopped; bye")
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    import repro.cuda_port  # noqa: F401 - registers the gpusim backend
    import repro.distributed.backend  # noqa: F401 - registers "distributed"
    from repro.bench import PROGRAMS
    from repro.core import list_backends
    from repro.data import DGP_REGISTRY
    from repro.gpusim import DEVICE_REGISTRY
    from repro.kernels import fast_grid_kernels, list_kernels
    from repro.serving import ArtifactCache, ServingConfig
    from repro.utils.membudget import MEMORY_BUDGET_ENV, requested_budget

    print("kernels        :", ", ".join(list_kernels()))
    print("fast-grid OK   :", ", ".join(fast_grid_kernels()))
    print("backends       :", ", ".join(list_backends()))
    print("devices        :", ", ".join(sorted(DEVICE_REGISTRY)))
    print("programs       :", ", ".join(sorted(PROGRAMS)))
    print("DGPs           :", ", ".join(sorted(DGP_REGISTRY)))
    budget = requested_budget()
    print(
        "memory budget  :",
        f"{budget:,} B ({budget / 1024**2:.0f} MiB, ${MEMORY_BUDGET_ENV}) "
        "per fast-grid row block"
        if budget is not None
        else f"none (set ${MEMORY_BUDGET_ENV} or --mem-budget to fit "
        "fast-grid row blocks to one)",
    )
    from repro.utils.calibration import calibration_source, host_bytes_per_second

    rate = host_bytes_per_second()
    print(
        "host bandwidth :",
        f"{rate / 1e9:.2f} GB/s ({calibration_source()}) for sweep-time "
        "estimates",
    )
    defaults = ServingConfig()
    cache = ArtifactCache(None)
    desc = cache.describe()
    print(
        "serving        :",
        f"default {defaults.host}:{defaults.port}, "
        f"backend={defaults.default_backend}, "
        f"kernel={defaults.default_kernel}",
    )
    print(
        "serving cache  :",
        f"memory budget {desc['max_memory_bytes']} B, "
        f"disk tier {'on' if desc['directory'] else 'off (pass --cache-dir)'}, "
        f"entries {desc['memory_entries']}",
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main

    argv: list[str] = ["--format", args.format]
    if args.output:
        argv += ["--output", args.output]
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.update_baseline:
        argv += ["--update-baseline", args.update_baseline]
    if args.changed:
        argv.append("--changed")
    if args.list_rules:
        argv.append("--list-rules")
    argv += list(args.paths)
    return lint_main(argv)


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig1": _cmd_fig1,
    "shape": _cmd_shape,
    "select": _cmd_select,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "workers": _cmd_workers,
    "info": _cmd_info,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
