"""Command-line interface: ``python -m repro`` / ``repro-bench``.

Subcommands regenerate the paper's artifacts and inspect the library:

* ``table1`` — Table I (run times by program and sample size)
* ``table2`` — Table II (run times by bandwidth count, both panels)
* ``fig1``   — Figure 1 (same sweep, ASCII log–log chart)
* ``shape``  — run Table I (+ optionally Table II) and verify the
  paper's shape claims
* ``select`` — one bandwidth selection on a chosen DGP; ``--trace PATH``
  also prints its span tree and writes a Chrome trace-event JSON (load
  in chrome://tracing or Perfetto)
* ``serve``  — JSON-over-HTTP bandwidth-selection service (fingerprint
  cache, micro-batched predict, /metrics)
* ``info``   — registered kernels, backends, devices, programs, serving
  cache status
* ``lint``   — project-aware static analysis (also ``repro-lint``)
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]

#: ``--backend`` choices shared by ``select`` and ``serve``.
BACKEND_CHOICES = ("numpy", "python", "blocked-shm", "gpusim", "gpusim-tiled")


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
        "numpy and blocked-shm backends, e.g. '2GB' or "
        "'512MiB' (default: $REPRO_MEM_BUDGET, else unbudgeted)",
    )
    sel.add_argument(
        "--resilient",
        action="store_true",
        help="run on the resilient execution engine (retry, backend "
        "fallback); implied by the other resilience flags",
    )
    sel.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failed sweep before degrading (default 2)",
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
    sel.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="trace the selection: write a Chrome trace-event JSON to PATH "
        "and print the span tree (with --json, the spans ride in "
        "diagnostics['trace'] instead)",
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

    sub.add_parser(
        "info",
        help="list kernels, backends, devices, programs, serving cache",
    )

    # Every argument after ``lint`` is forwarded to repro-lint unparsed,
    # so the two entry points share one option list (``-h`` included).
    sub.add_parser(
        "lint",
        add_help=False,
        help="run the repro-lint static-analysis pass (default path: src)",
    )
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
    if method == "bagged":
        kwargs["root_seed"] = args.root_seed
        if args.subsamples is not None:
            kwargs["subsamples"] = args.subsamples
        if args.subsample_size is not None:
            kwargs["subsample_size"] = args.subsample_size
    wants_resilience = (
        args.resilient
        or args.max_retries is not None
        or args.fallback is not None
    )
    if wants_resilience:
        from repro.resilience.engine import ResilienceConfig

        kwargs["resilience"] = ResilienceConfig(
            max_retries=args.max_retries if args.max_retries is not None else 2,
            fallback=args.fallback if args.fallback is not None else True,
        )
    if args.cache_dir is not None:
        from repro.serving import ArtifactCache

        kwargs["cache"] = ArtifactCache(args.cache_dir)
    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = kwargs["trace"] = Tracer()
    result = select_bandwidth(x, y, method=method, kernel=args.kernel, **kwargs)
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace, tracer, process_name="repro")
    if args.json:
        import json

        payload = result.to_dict()
        payload["scale_factor"] = bandwidth_to_scale(result.bandwidth, x)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(result.summary())
    if result.resilience is not None:
        print(result.resilience.summary())
    print(f"  scale factor  : {bandwidth_to_scale(result.bandwidth, x):.4f} "
          "(h / spread*n^-1/5, np convention)")
    if tracer is not None:
        from repro.obs import render_tree

        print()
        print(render_tree(tracer))
        print(f"\nchrome trace written to {args.trace} "
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


def _cmd_info(_: argparse.Namespace) -> int:
    import repro.cuda_port  # noqa: F401 - registers the gpusim backend
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


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig1": _cmd_fig1,
    "shape": _cmd_shape,
    "select": _cmd_select,
    "serve": _cmd_serve,
    "info": _cmd_info,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(rest or ["src"])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # A typed library error is a usage outcome, not a crash: one
        # ``[REPRO_…] message`` line instead of a traceback.
        print(" ".join(str(exc).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
