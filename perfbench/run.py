#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last line.

From the repository root::

    python3 perfbench/run.py --workload exact-8k --seed 1 --seconds 20 --trace 0

Workloads are ``exact-8k``, ``bagged-100k`` and ``served-mix`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines before it
start with ``#`` and record the host and the run.  The exit code is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.util
import json
import os
import platform
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Every run ends within this many seconds, failing if it cannot.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 3
MIN_OPS = {"exact-8k": 3, "bagged-100k": 2}
#: Served-mix runs at least this many fresh-server sessions.  Whole
#: sessions run fast or slow, so a run averages over several.
MIN_SESSIONS = 5


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded its {RUN_LIMIT_S:.0f}s limit")
        return remaining


class Child:
    """A child interpreter whose stdout lines arrive on a queue."""

    def __init__(self, args: list[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, prefix: str, deadline: Deadline) -> str:
        while True:
            try:
                line = self._lines.get(timeout=deadline.left())
            except queue.Empty:
                raise BenchError(f"no {prefix!r} line from child") from None
            if line is None:
                raise BenchError(f"child exited (code {self.proc.wait()}) before {prefix!r}")
            if line.startswith(prefix):
                return line

    def finish(self, *, terminate: bool = False, timeout: float = 30.0) -> int:
        if terminate and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5.0)
        return code


class Failures:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {reason}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def host_facts() -> dict[str, Any]:
    import numpy as np

    def sysconf(name: str) -> int | None:
        if name not in os.sysconf_names:
            return None
        value = os.sysconf(name)
        return value if value > 0 else None

    ram = (sysconf("SC_PAGE_SIZE") or 0) * (sysconf("SC_PHYS_PAGES") or 0)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_mib": ram / 2**20,
        "l2_bytes": sysconf("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": sysconf("SC_LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def time_setup(worker: list[str], deadline: Deadline) -> float:
    """Fresh interpreter to the worker's ``READY``: import, inputs, warm-up."""
    child = Child([*worker, "--setup-only"])
    try:
        child.expect("READY", deadline)
        return time.perf_counter() - child.started
    finally:
        child.finish(timeout=deadline.left())


# -- library workloads: exact-8k, bagged-100k ----------------------------------------


def run_library(args: argparse.Namespace, work: Path, deadline: Deadline) -> dict[str, Any]:
    import numpy as np

    from perfbench import oracle, workloads

    if args.workload == "exact-8k":
        order = workloads.exact_order(args.seed)
        pairs = [workloads.pool_dataset(seed, workloads.EXACT_N) for seed in order]
        refs = oracle.load("exact-8k")
    else:
        pairs = [workloads.bagged_dataset(args.seed)]
    grid = oracle.exact_grid()
    inputs = work / "inputs.npz"
    np.savez(inputs, x=np.stack([p[0] for p in pairs]), y=np.stack([p[1] for p in pairs]))

    worker = ["-m", "perfbench.worker", "--workload", args.workload,
              "--inputs", str(inputs), "--root-seed", str(args.seed)]
    setups = [] if args.trace else [time_setup(worker, deadline) for _ in range(SETUP_SAMPLES - 1)]
    child = Child([
        *worker, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--min-ops", str(MIN_OPS[args.workload] + args.trace),
    ])
    try:
        child.expect("READY", deadline)
        setups.append(time.perf_counter() - child.started)
        out = json.loads(child.expect("RESULT ", deadline)[len("RESULT "):])
    finally:
        child.finish(terminate=True, timeout=10.0)

    fails = Failures()
    first = next((op["h_opt"] for op in out["ops"] if "h_opt" in op), None)
    for i, op in enumerate(out["ops"]):
        if "error" in op:
            reason = op["error"]
        elif args.workload == "exact-8k":
            seed = order[op["index"]]
            reason = oracle.check_selection(op["h_opt"], op["score"], grid, refs[seed])
        else:
            reason = oracle.check_interior(op["h_opt"], grid)
            if reason is None and op["h_opt"] != first:
                reason = f"h_opt={op['h_opt']!r} differs from {first!r} for the same seed"
        fails.record(f"selection {i}", reason)

    ok = [op for op in out["ops"] if "h_opt" in op]
    plain = [op["seconds"] for op in ok if not op["traced"]]
    report: dict[str, Any] = {
        "selections": len(out["ops"]),
        "h_opt": sorted({op["h_opt"] for op in ok}),
        "select_s": plain,
    }
    if args.trace:
        traced = [op["seconds"] for op in ok if op["traced"]]
        metrics = layer_metrics(out["trace"], len(traced))
        metrics["unattributed_share"] = unattributed_share(out["trace"], sum(traced), "core.api")
        # The worker runs each dataset twice in a row, plain then traced.
        ops = out["ops"]
        ratios = [t["seconds"] / p["seconds"] for p, t in zip(ops[::2], ops[1::2])
                  if "h_opt" in p and "h_opt" in t]
        metrics["trace_overhead_share"] = _median(ratios) - 1.0
    else:
        metrics = {
            "setup_s": _median(setups),
            "select_s": _median(plain),
            "peak_rss_mib": out["peak_rss_mib"],
            "throughput_ops": len(plain) / sum(plain),
        }
        report["setup_s"] = setups
    metrics["error_rate"] = fails.error_rate
    return {"fails": fails, "metrics": metrics, "report": report}


# -- served-mix ------------------------------------------------------------------


@dataclass
class Reply:
    rid: int
    path: str
    status: int | None
    seconds: float
    body: bytes = field(repr=False)


def _http(host: str, port: int, method: str, url: str, body: bytes | None) -> tuple[int | None, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=60.0)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, url, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except OSError as exc:  # refused or dropped: attempted and failed
        return None, str(exc).encode()
    finally:
        conn.close()


def drive(host: str, port: int, requests: list[Any], bodies: dict[int, bytes],
          connections: int) -> tuple[list[Reply], float]:
    """Closed loop: each connection sends its next request after a reply."""
    pending = iter(requests)
    lock = threading.Lock()
    replies: list[Reply] = []

    def client() -> None:
        while True:
            with lock:
                req = next(pending, None)
            if req is None:
                return
            t0 = time.perf_counter()
            status, data = _http(host, port, "POST", f"{req.path}?rid={req.rid}", bodies[req.rid])
            reply = Reply(req.rid, req.path, status, time.perf_counter() - t0, data)
            with lock:
                replies.append(reply)

    threads = [threading.Thread(target=client) for _ in range(connections)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, time.perf_counter() - started


class ServedMix:
    """Inputs, oracle and server sessions of one served-mix run."""

    def __init__(self, seed: int, work: Path) -> None:
        import numpy as np

        from perfbench import oracle, workloads

        self.np, self.oracle, self.wl = np, oracle, workloads
        self.work = work
        self.reg_seed, self.requests = workloads.served_plan(seed)
        self.data = {s: workloads.pool_dataset(s, workloads.SERVED_N) for s in workloads.SERVED_POOL}
        self.refs = oracle.load("served-mix")
        self.grids = {s: oracle.served_grid(x) for s, (x, _) in self.data.items()}
        ref = self.refs[self.reg_seed]
        self.h_model = float(self.grids[self.reg_seed][oracle.reference_argmin(ref)])
        encoded = {
            s: json.dumps({"x": x.tolist(), "y": y.tolist(),
                           "n_bandwidths": workloads.SERVED_K}).encode()
            for s, (x, y) in self.data.items()
        }
        x, y = self.data[self.reg_seed]
        self.register_body = json.dumps({
            "x": x.tolist(), "y": y.tolist(), "n_bandwidths": workloads.SERVED_K,
            "register": workloads.MODEL_NAME,
        }).encode()
        self.bodies = {
            r.rid: encoded[r.dataset] if r.path == "/select"
            else json.dumps({"model": workloads.MODEL_NAME, "at": list(r.at)}).encode()
            for r in self.requests
        }
        self.by_rid = {r.rid: r for r in self.requests}
        self.sessions = 0
        self.server_cpu: int | None = None

    def check(self, reply: Reply) -> str | None:
        if reply.status != 200:
            return f"status {reply.status}: {reply.body[:120]!r}"
        try:
            payload = json.loads(reply.body)
            if reply.path.startswith("/select"):
                req = self.by_rid.get(reply.rid)
                seed = self.reg_seed if req is None else req.dataset
                result = payload["result"]
                return self.oracle.check_selection(
                    result["bandwidth"], result["score"], self.grids[seed], self.refs[seed]
                )
            x, y = self.data[self.reg_seed]
            at = self.np.array(self.by_rid[reply.rid].at)
            return self.oracle.check_prediction(payload["estimates"], x, y, self.h_model, at)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed response: {type(exc).__name__}: {exc}"

    def session(self, trace: int, fails: Failures, deadline: Deadline) -> tuple[Child, str, int, float, Path]:
        """Start a server; health-check it and register the model."""
        self.sessions += 1
        stats = self.work / f"server-{self.sessions}.json"
        cpu = [] if self.server_cpu is None else ["--cpu", str(self.server_cpu)]
        child = Child(["-m", "perfbench.server", "--stats", str(stats), "--trace", str(trace), *cpu])
        try:
            line = child.expect("repro serving on http://", deadline)
            host, _, port = line.rsplit("/", 1)[1].rpartition(":")
            status, _ = _http(host, int(port), "GET", "/healthz", None)
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
            t0 = time.perf_counter()
            status, data = _http(host, int(port), "POST", "/select?rid=-1", self.register_body)
            reply = Reply(-1, "/select", status, time.perf_counter() - t0, data)
            fails.record("registration /select", self.check(reply))
            return child, host, int(port), time.perf_counter() - child.started, stats
        except BaseException:
            child.finish(terminate=True)
            raise

    def close(self, child: Child, stats: Path) -> dict[str, Any]:
        code = child.finish(terminate=True)
        if code != 0 or not stats.exists():
            raise BenchError(f"server exited with code {code} and no stats")
        return json.loads(stats.read_text())

    def traffic(self, trace: int, fails: Failures, deadline: Deadline) -> tuple[list[Reply], float, dict[str, Any], float]:
        child, host, port, setup, stats = self.session(trace, fails, deadline)
        try:
            replies, wall = drive(host, port, self.requests, self.bodies, self.wl.SERVED_CONNECTIONS)
        finally:
            server = self.close(child, stats)
        for reply in sorted(replies, key=lambda r: r.rid):
            fails.record(f"{reply.path} rid {reply.rid}", self.check(reply))
        return replies, wall, server, setup


def latency_report(replies: list[Reply]) -> dict[str, Any]:
    from perfbench import stats

    out: dict[str, Any] = {}
    for path in ("/select", "/predict"):
        ms = [r.seconds * 1e3 for r in replies if r.path == path and r.status == 200]
        name = path.strip("/")
        out[f"{name}_count"] = len(ms)
        if ms:
            out[f"{name}_p50_ms"] = stats.percentile(ms, 50)
            tail = stats.tail_percentile(len(ms))
            if tail is not None and tail > 50:
                out[f"{name}_p{tail:g}_ms"] = stats.percentile(ms, tail)
    sizes = [len(r.body) for r in replies if r.path == "/select" and r.status == 200]
    out["select_response_bytes_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    return out


def run_served(args: argparse.Namespace, work: Path, deadline: Deadline) -> dict[str, Any]:
    mix = ServedMix(args.seed, work)
    # Server and client on CPUs of their own, so that how the OS happens
    # to place their threads does not change a run's latency.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        mix.server_cpu = cpus[0]
        os.sched_setaffinity(0, set(cpus[1:]))
    fails = Failures()
    report: dict[str, Any] = {"requests_per_session": len(mix.requests)}
    if args.trace:
        # The same request sequence twice, on fresh servers: plain, then traced.
        plain, _, _, _ = mix.traffic(0, fails, deadline)
        replies, _, server, _ = mix.traffic(1, fails, deadline)
        metrics = served_layer_metrics(server["trace"], replies, len(mix.requests) + 1)
        metrics["trace_overhead_share"] = (
            sum(r.seconds for r in replies) / sum(r.seconds for r in plain) - 1.0
        )
        report.update(latency_report(replies))
    else:
        # Each session serves the same fixed request count on a fresh server
        # (responses grow with requests served); sessions repeat for the run.
        sessions = []
        started = time.perf_counter()
        while len(sessions) < MIN_SESSIONS or time.perf_counter() - started < args.seconds:
            sessions.append(mix.traffic(0, fails, deadline))
        replies = [r for session in sessions for r in session[0]]
        setups = [session[3] for session in sessions]
        by_session = [
            _median([r.seconds for r in session[0] if r.path == "/select" and r.status == 200])
            for session in sessions
        ]
        metrics = {
            "setup_s": _median(setups),
            "select_s": sum(by_session) / len(by_session),
            "peak_rss_mib": _median([session[2]["peak_rss_mib"] for session in sessions]),
            "throughput_ops": len(replies) / sum(session[1] for session in sessions),
        }
        report.update(latency_report(replies), sessions=len(sessions), setup_s=setups,
                      select_s_by_session=by_session)
    metrics["error_rate"] = fails.error_rate
    return {"fails": fails, "metrics": metrics, "report": report}


# -- per-layer metrics -----------------------------------------------------------


def _median(values: list[float]) -> float:
    from perfbench import stats

    if not values:
        raise BenchError("no successful operation to take a median of")
    return stats.median(values)


def unattributed_share(trace: dict[str, Any], wall_s: float, catch_all: str) -> float:
    """Share of ``wall_s`` that no named layer below ``catch_all`` claims.

    That is the catch-all's self time plus any time outside every span, so
    it rises when work moves out of the wrapped layers.
    """
    attributed = trace["root_s"] - trace["self_s"].get(catch_all, 0.0)
    return 1.0 - attributed / wall_s


def layer_metrics(trace: dict[str, Any], ops: int) -> dict[str, float]:
    """Per-operation self times and counters from a recorder summary."""
    from perfbench.stats import median_or_zero

    self_s: dict[str, float] = trace["self_s"]
    counters: dict[str, float] = trace["counters"]
    samples: dict[str, list[float]] = trace["samples"]

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    lookups = counters.get("serving.cache.lookups", 0.0)
    chunk = samples.get("utils.chunking.chunk_rows", [])
    return {
        "core.api.overhead_s": per_op(self_s.get("core.api", 0.0)),
        "core.selectors.s": per_op(self_s.get("core.selectors", 0.0)),
        "core.selectors.n_evaluations": per_op(counters.get("core.selectors.n_evaluations", 0.0)),
        "core.backends.sweep_s": per_op(self_s.get("core.backends", 0.0)),
        "core.fastgrid.rows_s": per_op(self_s.get("core.fastgrid", 0.0)),
        "core.fastgrid.calls": per_op(counters.get("core.fastgrid.calls", 0.0)),
        "core.fastgrid.pairs": per_op(counters.get("core.fastgrid.pairs", 0.0)),
        "core.fastgrid.computed_bytes": per_op(counters.get("core.fastgrid.computed_bytes", 0.0)),
        "utils.numeric.fold_s": per_op(self_s.get("utils.numeric", 0.0)),
        "utils.chunking.chunk_rows": sorted(chunk)[len(chunk) // 2] if chunk else 0.0,
        "utils.validation.calls": per_op(counters.get("utils.validation.calls", 0.0)),
        "utils.validation.s": per_op(self_s.get("utils.validation", 0.0)),
        "bagged.plan_s": per_op(self_s.get("bagged.plan", 0.0)),
        "bagged.aggregate_s": per_op(self_s.get("bagged.aggregate", 0.0)),
        "bagged.subsamples": per_op(counters.get("bagged.subsamples", 0.0)),
        "resilience.engine.cv_scores_s": per_op(self_s.get("resilience.engine", 0.0)),
        "resilience.engine.blocks": per_op(counters.get("resilience.engine.blocks", 0.0)),
        "resilience.engine.retries": per_op(counters.get("resilience.engine.retries", 0.0)),
        "serving.cache.fingerprint_s": per_op(self_s.get("serving.cache.fingerprint", 0.0)),
        "serving.cache.lookup_s": per_op(self_s.get("serving.cache.lookup", 0.0)),
        "serving.cache.lookups": per_op(lookups),
        "serving.cache.hit_ratio": counters.get("serving.cache.hits", 0.0) / lookups if lookups else 0.0,
        "serving.scheduler.s": per_op(self_s.get("serving.scheduler", 0.0)),
        "serving.scheduler.select_wait_ms": median_or_zero(samples.get("select_wait_ms", [])),
        "serving.scheduler.predict_wait_ms": median_or_zero(samples.get("predict_wait_ms", [])),
        "serving.scheduler.predict_batch_mean": _mean_or_zero(samples.get("predict_batch", [])),
        "serving.server.s": per_op(self_s.get("serving.server", 0.0)),
        "serving.server.handle_ms": 0.0,
        "serving.server.wire_ms": 0.0,
        "serving.server.response_bytes": 0.0,
        "regression.predict_s": per_op(self_s.get("regression", 0.0)),
        "regression.points": per_op(counters.get("regression.points", 0.0)),
    }


def served_layer_metrics(trace: dict[str, Any], replies: list[Reply], ops: int) -> dict[str, float]:
    from perfbench.stats import median_or_zero

    metrics = layer_metrics(trace, ops)
    handle = {
        int(key.split(":", 1)[1]): values[0]
        for key, values in trace["samples"].items()
        if key.startswith("handle_ms:")
    }
    timed = [r for r in replies if r.rid in handle]
    metrics["serving.server.handle_ms"] = median_or_zero([handle[r.rid] for r in timed])
    metrics["serving.server.wire_ms"] = median_or_zero(
        [r.seconds * 1e3 - handle[r.rid] for r in timed]
    )
    sizes = [len(r.body) for r in replies if r.path == "/select" and r.status == 200]
    metrics["serving.server.response_bytes"] = _mean_or_zero([float(s) for s in sizes])
    # Wall time inside ServingApp.handle, registration included; the wire
    # outside it is serving.server.wire_ms.
    metrics["unattributed_share"] = unattributed_share(
        trace, sum(handle.values()) / 1e3, "serving.server"
    )
    return metrics


def _mean_or_zero(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- entry point ---------------------------------------------------------------------


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-8k", "bagged-100k", "served-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    def terminated(signum: int, frame: Any) -> None:
        raise BenchError("terminated by SIGTERM")

    # Unwind through the cleanup below, so no worker or server outlives the run.
    signal.signal(signal.SIGTERM, terminated)
    deadline = Deadline(RUN_LIMIT_S)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_served if args.workload == "served-mix" else run_library
        outcome = runner(args, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = declared_metrics(args.trace)
    missing = set(units) - set(outcome["metrics"])
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1
    fails: Failures = outcome["fails"]
    print("# host " + json.dumps(host_facts()))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed, **outcome["report"]}))
    for reason in fails.reasons:
        print(f"# failed {reason}")
    print(json.dumps({
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
