"""JSON-over-HTTP serving front end (stdlib asyncio only).

Turns the reproduction into an inference service::

    repro-bench serve --dgp paper --n 1000 --port 8173

    curl -s localhost:8173/healthz
    curl -s -X POST localhost:8173/predict \\
         -d '{"model": "default", "at": [0.25, 0.5, 0.75]}'
    curl -s localhost:8173/metrics

Endpoints
---------
``POST /select``    select a bandwidth for posted ``x``/``y`` arrays
                    (fingerprint-cached; ``"register"`` optionally names
                    the fitted model for later ``/predict`` traffic)
``POST /fit``       fit + register a named model
``POST /predict``   NW estimates from a registered model (micro-batched:
                    concurrent requests for the same model coalesce into
                    one estimator pass)
``GET  /models``    registered models with provenance
``GET  /healthz``   liveness + model/cache summary
``GET  /metrics``   text metrics dump (cache hit rate, boundary optima,
                    batch occupancy, queue depth, latency percentiles)

The HTTP layer is deliberately minimal (HTTP/1.1, ``Connection:
close``, JSON bodies); the interesting parts live in
:class:`ServingApp.handle`, which is pure-async and fully testable
without sockets.  All numpy-bound work runs on executor threads via the
:class:`~repro.serving.scheduler.MicroBatchScheduler` — the event loop
only parses, routes, and serialises.

Failures route through the same classification the resilience layer
uses: typed ``REPRO_*`` codes map onto HTTP statuses (validation and
unknown backend names → 400, unknown model → 404, admission control →
429, everything else → 500), and selections run with ``resilience=``
enabled by default so an overloaded/OOM gpusim backend degrades down the
fallback chain instead of 500ing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import (
    BackendError,
    OverloadError,
    RegistryError,
    ReproError,
    ServeTimeoutError,
    ValidationError,
    error_code,
)
from repro.core.backends import get_backend
from repro.core.result import SelectionResult
from repro.obs.export import trace_metrics_lines
from repro.obs.tracer import NULL_TRACER, Tracer, TracerLike, use_tracer
from repro.serving.cache import ArtifactCache
from repro.serving.metrics import MetricsRegistry
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import MicroBatchScheduler, SchedulerConfig

__all__ = ["ServingApp", "ServingConfig", "run_server", "serve_forever"]

_MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving process needs to know."""

    host: str = "127.0.0.1"
    port: int = 8173
    cache_dir: str | None = None
    max_memory_bytes: int = 64 * 1024 * 1024
    max_disk_bytes: int = 512 * 1024 * 1024
    predict: SchedulerConfig = field(default_factory=SchedulerConfig)
    select: SchedulerConfig = field(
        default_factory=lambda: SchedulerConfig(max_batch_size=4, max_wait_ms=1.0)
    )
    #: Connection read timeout: a client that connects but never sends a
    #: complete request is answered 504 and dropped, so slow-loris
    #: connections cannot pin the accept loop's resources.
    read_timeout_s: float = 30.0
    #: Per-request execution deadline; past it the request is answered
    #: with a typed ``REPRO_SERVE_TIMEOUT`` 504.  ``None`` disables the
    #: deadline.
    request_deadline_s: float | None = 120.0
    #: Run selections on the resilient engine (backend degrade chain).
    resilience: bool = True
    #: Record per-request spans into the app tracer (surfaced on /metrics).
    tracing: bool = True
    #: Ring-buffer capacity of the app tracer.
    trace_events: int = 8192
    default_backend: str = "numpy"
    default_kernel: str = "epanechnikov"
    default_n_bandwidths: int = 50


class ServingApp:
    """Route table + request executors over cache, registry, schedulers."""

    def __init__(self, config: ServingConfig | None = None) -> None:
        self.config = config or ServingConfig()
        self.metrics = MetricsRegistry()
        self.tracer: TracerLike = (
            Tracer(max_events=self.config.trace_events)
            if self.config.tracing
            else NULL_TRACER
        )
        self.cache = ArtifactCache(
            self.config.cache_dir,
            max_memory_bytes=self.config.max_memory_bytes,
            max_disk_bytes=self.config.max_disk_bytes,
        )
        self.registry = ModelRegistry(cache=self.cache)
        self._predict_scheduler: MicroBatchScheduler[
            tuple[str, np.ndarray], np.ndarray
        ] = MicroBatchScheduler(
            self._run_predict_batch,
            config=self.config.predict,
            metrics=self.metrics,
            name="predict",
        )
        self._select_scheduler: MicroBatchScheduler[
            dict[str, Any], SelectionResult
        ] = MicroBatchScheduler(
            self._run_select_batch,
            config=self.config.select,
            metrics=self.metrics,
            name="select",
        )
        self._m_http = self.metrics.counter(
            "http_requests_total", "HTTP requests handled"
        )
        self._m_http_5xx = self.metrics.counter(
            "http_errors_total", "HTTP 5xx responses"
        )
        self._m_latency = self.metrics.histogram(
            "http_request_seconds", "end-to-end request latency"
        )
        self._m_select_hits = self.metrics.counter(
            "select_cache_hits_total", "selections answered from the cache"
        )
        self._m_select_cold = self.metrics.counter(
            "select_cache_misses_total", "selections that ran the sweep"
        )
        self._m_select_boundary = self.metrics.counter(
            "select_boundary_total",
            "selections whose optimum sits on an edge of the grid",
        )

    # -- lifecycle ---------------------------------------------------------

    def startup(self) -> None:
        """Start the schedulers (requires a running event loop)."""
        self._predict_scheduler.start()
        self._select_scheduler.start()

    async def shutdown(self) -> None:
        """Graceful drain: finish queued work, then stop."""
        await self._predict_scheduler.drain()
        await self._select_scheduler.drain()

    # -- blocking batch runners (executor threads) -------------------------

    def _run_predict_batch(
        self, items: list[tuple[str, np.ndarray]]
    ) -> list[np.ndarray]:
        """Group a batch by model, run one estimator pass per group.

        Coalescing is real work saved: ``B`` requests for one model cost
        one kernel-matrix pass over the concatenated evaluation points
        instead of ``B`` passes.
        """
        groups: dict[str, list[int]] = {}
        for idx, (model_name, _) in enumerate(items):
            groups.setdefault(model_name, []).append(idx)
        out: list[np.ndarray | None] = [None] * len(items)
        with self.tracer.span(
            "predict-batch", size=len(items), models=len(groups)
        ):
            for model_name, indices in groups.items():
                record = self.registry.get(model_name)
                points = np.concatenate([items[i][1] for i in indices])
                estimates = record.model.predict(points)
                offset = 0
                for i in indices:
                    m = items[i][1].shape[0]
                    out[i] = estimates[offset : offset + m]
                    offset += m
        return [est for est in out if est is not None]

    def _run_select_batch(
        self, payloads: list[dict[str, Any]]
    ) -> list[SelectionResult]:
        """Run each selection in the batch (cache-warm ones are instant)."""
        from repro.core.api import select_bandwidth

        results: list[SelectionResult] = []
        with use_tracer(self.tracer):
            with self.tracer.span("select-batch", size=len(payloads)):
                for payload in payloads:
                    kwargs = dict(payload)
                    x = kwargs.pop("x")
                    y = kwargs.pop("y")
                    results.append(
                        select_bandwidth(x, y, cache=self.cache, **kwargs)
                    )
        return results

    # -- request parsing helpers -------------------------------------------

    @staticmethod
    def _as_array(body: dict[str, Any], key: str) -> np.ndarray:
        value = body.get(key)
        if not isinstance(value, (list, tuple)) or not value:
            raise ValidationError(
                f"field {key!r} must be a non-empty JSON array of numbers"
            )
        try:
            return np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"field {key!r} is not numeric: {exc}") from exc

    def _select_kwargs(self, body: dict[str, Any]) -> dict[str, Any]:
        kwargs: dict[str, Any] = {
            "x": self._as_array(body, "x"),
            "y": self._as_array(body, "y"),
            "method": str(body.get("method", "grid")),
            "kernel": str(body.get("kernel", self.config.default_kernel)),
        }
        if kwargs["method"].lower() in ("grid", "grid-search", "fast-grid"):
            kwargs["backend"] = str(
                body.get("backend", self.config.default_backend)
            )
            # Resolved here, not in the batch: an unknown name must fail
            # this request alone (REPRO_BACKEND, 400), not its batch-mates.
            get_backend(kwargs["backend"])
            raw = body.get("n_bandwidths", self.config.default_n_bandwidths)
            try:
                kwargs["n_bandwidths"] = int(raw)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"field 'n_bandwidths' is not an integer: {raw!r}"
                ) from exc
            if self.config.resilience:
                kwargs["resilience"] = True
        return kwargs

    # -- routes ------------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: dict[str, Any] | None
    ) -> tuple[int, dict[str, Any] | str]:
        """Dispatch one request; returns ``(status, payload)``.

        A ``str`` payload is served as ``text/plain`` (the /metrics
        dump); dicts are serialised as JSON.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        self._m_http.inc()
        deadline = self.config.request_deadline_s
        with use_tracer(self.tracer):
            with self.tracer.span("request", method=method, path=path) as span:
                try:
                    route = self._route(method, path, body or {})
                    if deadline is not None:
                        status, payload = await asyncio.wait_for(
                            route, timeout=deadline
                        )
                    else:
                        status, payload = await route
                except asyncio.TimeoutError:
                    status, payload = 504, self._error_payload(
                        ServeTimeoutError(
                            f"{method} {path} exceeded the "
                            f"{deadline:.1f}s request deadline"
                        )
                    )
                except ServeTimeoutError as exc:
                    status, payload = 504, self._error_payload(exc)
                except OverloadError as exc:
                    status, payload = 429, self._error_payload(exc)
                except RegistryError as exc:
                    status, payload = 404, self._error_payload(exc)
                except (ValidationError, BackendError) as exc:
                    status, payload = 400, self._error_payload(exc)
                except ReproError as exc:
                    status, payload = 500, self._error_payload(exc)
                except Exception as exc:  # boundary: faults become statuses
                    status, payload = 500, {
                        "error": f"internal error: {type(exc).__name__}: {exc}",
                        "code": "REPRO_SERVING",
                    }
                span.set(status=status)
        if status >= 500:
            self._m_http_5xx.inc()
        self._m_latency.observe(loop.time() - started)
        return status, payload

    async def _route(
        self, method: str, path: str, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any] | str]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            if path == "/healthz":
                return 200, self._healthz()
            if path == "/metrics":
                return 200, self.metrics_text()
            if path == "/models":
                return 200, {"models": self.registry.describe()}
        elif method == "POST":
            if path == "/select":
                return await self._handle_select(body)
            if path == "/predict":
                return await self._handle_predict(body)
            if path == "/fit":
                return await self._handle_fit(body)
        raise ValidationError(
            f"no route for {method} {path}; available: GET /healthz, "
            "GET /metrics, GET /models, POST /select, POST /predict, "
            "POST /fit"
        )

    async def _handle_select(
        self, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        kwargs = self._select_kwargs(body)
        with self.tracer.span("select", n=int(kwargs["x"].shape[0])) as span:
            result = await self._select_scheduler.submit(kwargs)
            cache_hit = result.diagnostics.get("cache") == "hit"
            span.set(
                cache="hit" if cache_hit else "miss",
                fingerprint=result.diagnostics.get("fingerprint"),
                h_opt=result.bandwidth,
            )
        if cache_hit:
            self._m_select_hits.inc()
        else:
            self._m_select_cold.inc()
        if result.diagnostics.get("boundary_minimum"):
            self._m_select_boundary.inc()
        register = body.get("register")
        if register is not None:
            from repro.regression import NadarayaWatson

            model = NadarayaWatson(
                result.kernel, bandwidth=result.bandwidth
            ).fit(kwargs["x"], kwargs["y"])
            self.registry.register(
                str(register),
                model,
                provenance={
                    "method": result.method,
                    "backend": result.backend,
                    "cache": "hit" if cache_hit else "miss",
                    "selection_wall_seconds": result.wall_seconds,
                },
                result=result,
                overwrite=True,
            )
        return 200, {
            "result": result.to_dict(),
            "cache_hit": cache_hit,
        }

    async def _handle_predict(
        self, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        model_name = str(body.get("model", "default"))
        at = self._as_array(body, "at")
        if model_name not in self.registry:
            # Typed 404 *before* paying a queue slot.
            self.registry.get(model_name)
        estimates = await self._predict_scheduler.submit((model_name, at))
        values = [
            None if not np.isfinite(v) else float(v) for v in estimates
        ]
        return 200, {"model": model_name, "estimates": values}

    async def _handle_fit(
        self, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError("field 'name' must be a non-empty string")
        kwargs = self._select_kwargs(body)
        kwargs.pop("resilience", None)
        loop = asyncio.get_running_loop()
        record = await loop.run_in_executor(
            None,
            lambda: self.registry.fit(
                name, overwrite=bool(body.get("overwrite", False)), **kwargs
            ),
        )
        return 200, {"model": record.describe()}

    # -- introspection -----------------------------------------------------

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "models": self.registry.names(),
            "cache": self.cache.describe(),
            "schedulers": [
                self._predict_scheduler.describe(),
                self._select_scheduler.describe(),
            ],
        }

    def metrics_text(self) -> str:
        """Registry metrics plus cache counters, one scrapeable blob."""
        stats = self.cache.stats
        lines = [
            "# HELP repro_cache_hits_total artifact cache hits",
            f"repro_cache_hits_total {stats.hits}",
            f"repro_cache_misses_total {stats.misses}",
            f"repro_cache_puts_total {stats.puts}",
            f"repro_cache_hit_rate {stats.hit_rate:.6f}",
            f"repro_cache_memory_evictions_total {stats.memory_evictions}",
            f"repro_cache_disk_evictions_total {stats.disk_evictions}",
            f"repro_registered_models {len(self.registry)}",
        ]
        if isinstance(self.tracer, Tracer):
            lines.extend(trace_metrics_lines(self.tracer))
        return self.metrics.render_text() + "\n".join(lines) + "\n"

    @staticmethod
    def _error_payload(exc: ReproError) -> dict[str, Any]:
        return {"error": str(exc), "code": error_code(exc) or "REPRO_SERVING"}


# -- the wire protocol ------------------------------------------------------


def _json_default(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict[str, Any] | str,
) -> None:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               413: "Payload Too Large", 422: "Unprocessable Entity",
               429: "Too Many Requests", 500: "Internal Server Error",
               504: "Gateway Timeout"}
    if isinstance(payload, str):
        body = payload.encode()
        content_type = "text/plain; charset=utf-8"
    else:
        body = json.dumps(payload, default=_json_default).encode()
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, Any] | None] | None:
    """Parse one HTTP/1.1 request; None on EOF/garbage before the verb."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        return None
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        return None
    method, path = parts[0].upper(), parts[1]
    length = 0
    for line in header_lines:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise ValidationError(f"bad Content-Length {value.strip()!r}")
    if length > _MAX_BODY_BYTES:
        raise ValidationError(
            f"request body of {length} bytes exceeds the "
            f"{_MAX_BODY_BYTES}-byte limit"
        )
    body: dict[str, Any] | None = None
    if length:
        raw = await reader.readexactly(length)
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ValidationError("request body must be a JSON object")
        body = parsed
    return method, path, body


async def run_server(
    app: ServingApp,
    *,
    ready: "asyncio.Future[tuple[str, int]] | None" = None,
    shutdown_trigger: "asyncio.Event | None" = None,
) -> None:
    """Serve ``app`` until ``shutdown_trigger`` (or cancellation).

    ``ready`` (if given) resolves to the bound ``(host, port)`` once the
    socket is listening — pass ``port=0`` in the config to let the OS
    pick a free port (the tests and smoke script do).
    """

    async def handle_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader),
                    timeout=app.config.read_timeout_s,
                )
            except asyncio.TimeoutError:
                # A connection that never finishes its request (slow
                # loris, dead peer) gets a typed 504 and its socket back.
                exc = ServeTimeoutError(
                    "request not received within the "
                    f"{app.config.read_timeout_s:.1f}s read timeout"
                )
                await _write_response(
                    writer, 504, {"error": str(exc), "code": exc.code}
                )
                return
            except ValidationError as exc:
                await _write_response(
                    writer, 400, {"error": str(exc), "code": exc.code}
                )
                return
            if request is None:
                return
            method, path, body = request
            status, payload = await app.handle(method, path, body)
            await _write_response(writer, status, payload)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    server = await asyncio.start_server(
        handle_connection, app.config.host, app.config.port
    )
    app.startup()
    sockets = server.sockets or ()
    bound = sockets[0].getsockname()[:2] if sockets else (app.config.host, 0)
    if ready is not None and not ready.done():
        ready.set_result((bound[0], int(bound[1])))
    try:
        async with server:
            if shutdown_trigger is None:
                await server.serve_forever()
            else:
                await shutdown_trigger.wait()
    finally:
        # Graceful drain: stop accepting, finish queued micro-batches,
        # then persist the memory-tier cache so a restart stays warm.
        server.close()
        await app.shutdown()
        app.cache.flush()


def serve_forever(target: ServingApp | ServingConfig | None = None) -> int:
    """Blocking entry point used by ``repro-bench serve``.

    Accepts a prepared :class:`ServingApp` (the CLI pre-fits a default
    model on its registry) or a bare config.  SIGTERM and SIGINT both
    trigger a graceful shutdown — drain the schedulers, stop accepting,
    flush the artifact cache disk tier — and exit 0.
    """
    import signal

    app = target if isinstance(target, ServingApp) else ServingApp(target)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        ready: asyncio.Future[tuple[str, int]] = loop.create_future()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal handlers
        task = loop.create_task(
            run_server(app, ready=ready, shutdown_trigger=stop)
        )
        host, port = await ready
        print(f"repro serving on http://{host}:{port}", flush=True)
        await task
        print("repro serving drained; bye", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0
