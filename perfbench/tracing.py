"""In-memory spans around calls into the library's modules.

The benchmark replaces public functions at the module attributes their
callers resolve, so every call of one becomes a span named after its
module, and restores the originals afterwards.  Nothing under ``src/``
changes.  Spans stay in memory; :meth:`Recorder.summary` reduces them to
per-layer self times and counters when a run ends.

A span's self time is its duration minus that of its direct children.
Nesting follows the context (a thread, or an asyncio task), and a batch
runner that serves a queued request is linked as a child of that
request's ``serving.scheduler`` span.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Recorder:
    """Spans, counters and samples of one traced run."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        #: span id -> (name, parent id, start, end)
        self.spans: dict[int, tuple[str, int | None, float, float]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: id(payload) -> (submit span id, runner start) for scheduler linking
        self.queued: dict[int, list[Any]] = {}

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[int]:
        span_id = next(self._ids)
        if parent is None:
            parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans[span_id] = (name, parent, start, end)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def self_times(self) -> dict[str, float]:
        """Layer name -> total self time in seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, start, end in self.spans.values():
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, (name, _, start, end) in self.spans.items():
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def root_seconds(self) -> float:
        """Summed duration of spans with no parent: the attributed time."""
        return sum(
            end - start
            for _, parent, start, end in self.spans.values()
            if parent is None
        )

    def summary(self) -> dict[str, Any]:
        return {
            "self_s": self.self_times(),
            "root_s": self.root_seconds(),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }


# -- wrappers -----------------------------------------------------------------

Hook = Callable[[Recorder, inspect.BoundArguments, Any], None]


def _wrap(rec: Recorder, layer: str, fn: Callable[..., Any], after: Hook | None) -> Any:
    signature = inspect.signature(fn)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            with rec.span(layer):
                result = await fn(*args, **kwargs)
            if after is not None:
                after(rec, signature.bind(*args, **kwargs), result)
            return result

        return traced_async

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with rec.span(layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, signature.bind(*args, **kwargs), result)
        return result

    return traced


def _fastgrid_counts(rec: Recorder, bound: inspect.BoundArguments, result: Any) -> None:
    from repro.kernels import get_kernel

    args = bound.arguments
    rows = int(args["stop"]) - int(args["start"])
    n = int(len(args["x"]))
    terms = len(get_kernel(args["kernel_name"]).poly_terms)
    rec.count("core.fastgrid.calls")
    rec.count("core.fastgrid.pairs", rows * n)
    # Computed, not measured: the rows×n float64/int64 arrays one call
    # materialises (distances, bin indices, row offsets, flat bins, and a
    # power and a y-weighted copy per polynomial term).
    rec.count("core.fastgrid.computed_bytes", rows * n * 8 * (4 + 2 * terms))


def _chunk_value(rec: Recorder, bound: inspect.BoundArguments, result: Any) -> None:
    rec.sample("utils.chunking.chunk_rows", float(result))


def _validation_count(rec: Recorder, bound: inspect.BoundArguments, result: Any) -> None:
    rec.count("utils.validation.calls")


def _selector_counts(rec: Recorder, bound: inspect.BoundArguments, result: Any) -> None:
    rec.count("core.selectors.n_evaluations", result.n_evaluations)


def _plan_counts(rec: Recorder, bound: inspect.BoundArguments, result: Any) -> None:
    rec.count("bagged.subsamples", result.n_subsamples)


def _lookup_counts(rec: Recorder, bound: inspect.BoundArguments, result: Any) -> None:
    rec.count("serving.cache.lookups")
    if result is not None:
        rec.count("serving.cache.hits")


def _predict_counts(rec: Recorder, bound: inspect.BoundArguments, result: Any) -> None:
    rec.count("regression.points", len(bound.arguments["at"]))


#: (module, attribute, layer, hook).  An attribute "Class.method" patches the
#: class; each module listed under one function is a caller that bound it
#: by name at import time.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("repro", "select_bandwidth", "core.api", None),
    ("repro.core.api", "select_bandwidth", "core.api", None),
    ("repro.core.selectors", "GridSearchSelector.select", "core.selectors", _selector_counts),
    ("repro.core.fastgrid", "fastgrid_row_contributions", "core.fastgrid", _fastgrid_counts),
    ("repro.core.fastgrid", "fold_rows", "utils.numeric", None),
    ("repro.core.backends", "fold_rows", "utils.numeric", None),
    ("repro.core.fastgrid", "suggest_chunk_rows", "utils.chunking", _chunk_value),
    ("repro.core.api", "check_paired_samples", "utils.validation", _validation_count),
    ("repro.core.selectors", "check_paired_samples", "utils.validation", _validation_count),
    ("repro.core.fastgrid", "check_paired_samples", "utils.validation", _validation_count),
    ("repro.bagged.selector", "check_paired_samples", "utils.validation", _validation_count),
    ("repro.resilience.engine", "check_paired_samples", "utils.validation", _validation_count),
    ("repro.regression.nadaraya_watson", "check_paired_samples", "utils.validation", _validation_count),
    ("repro.bagged.selector", "plan_subsamples", "bagged.plan", _plan_counts),
    ("repro.bagged.selector", "aggregate_bandwidths", "bagged.aggregate", None),
    ("repro.serving.cache", "selection_fingerprint", "serving.cache.fingerprint", None),
    ("repro.serving.cache", "curve_fingerprint", "serving.cache.fingerprint", None),
    ("repro.serving.cache", "ArtifactCache.get_selection", "serving.cache.lookup", _lookup_counts),
    ("repro.regression.nadaraya_watson", "NadarayaWatson.predict", "regression", _predict_counts),
)


class Installation:
    """Patched attributes and how to restore them."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def setattr(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def setitem(self, owner: dict, key: str, value: Any) -> None:
        original = owner[key]
        owner[key] = value
        self._undo.append(lambda: owner.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(module: str, attribute: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _engine_wrapper(rec: Recorder, fn: Callable[..., Any]) -> Any:
    @functools.wraps(fn)
    def cv_scores(engine: Any, *args: Any, **kwargs: Any) -> Any:
        blocks, retries = engine.report.blocks_total, engine.report.retries
        with rec.span("resilience.engine"):
            result = fn(engine, *args, **kwargs)
        rec.count("resilience.engine.blocks", engine.report.blocks_total - blocks)
        rec.count("resilience.engine.retries", engine.report.retries - retries)
        return result

    return cv_scores


def install(rec: Recorder) -> Installation:
    """Wrap every library target; call ``restore()`` on the result to undo."""
    from repro.core.backends import BACKEND_REGISTRY
    from repro.resilience.engine import ResilientEngine

    inst = Installation()
    wrapped: dict[int, Any] = {}
    for module, attribute, layer, hook in TARGETS:
        owner, name = _resolve(module, attribute)
        fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        # One wrapper per function, so a caller reached through two
        # attributes does not open two spans.
        if id(fn) not in wrapped:
            wrapped[id(fn)] = _wrap(rec, layer, fn, hook)
        inst.setattr(owner, name, wrapped[id(fn)])
    inst.setitem(
        BACKEND_REGISTRY, "numpy", _wrap(rec, "core.backends", BACKEND_REGISTRY["numpy"], None)
    )
    inst.setattr(
        ResilientEngine, "cv_scores", _engine_wrapper(rec, ResilientEngine.__dict__["cv_scores"])
    )
    return inst


def install_serving(rec: Recorder) -> Installation:
    """Serving-layer wrappers; call before the :class:`ServingApp` is built.

    ``ServingApp.handle`` records its duration per request id (the
    ``rid`` query parameter the benchmark client sends).  The scheduler's
    ``submit`` and the app's batch runners are linked by payload identity,
    which gives each request's queue wait and each predict batch's size.
    """
    from repro.serving.scheduler import MicroBatchScheduler
    from repro.serving.server import ServingApp

    inst = Installation()
    handle = ServingApp.__dict__["handle"]

    @functools.wraps(handle)
    async def traced_handle(app: Any, method: str, path: str, body: Any) -> Any:
        start = time.perf_counter()
        with rec.span("serving.server"):
            result = await handle(app, method, path, body)
        _, _, query = path.partition("?rid=")
        if query:
            rec.sample(f"handle_ms:{query}", (time.perf_counter() - start) * 1e3)
        return result

    submit = MicroBatchScheduler.__dict__["submit"]

    @functools.wraps(submit)
    async def traced_submit(scheduler: Any, payload: Any) -> Any:
        with rec.span("serving.scheduler") as span_id:
            entry = rec.queued[id(payload)] = [span_id, None, time.perf_counter()]
            try:
                return await submit(scheduler, payload)
            finally:
                rec.queued.pop(id(payload), None)
                if entry[1] is not None:
                    rec.sample(f"{scheduler.name}_wait_ms", (entry[1] - entry[2]) * 1e3)

    def runner(kind: str, fn: Callable[..., Any]) -> Any:
        @functools.wraps(fn)
        def traced_runner(app: Any, payloads: list[Any]) -> Any:
            now = time.perf_counter()
            entries = [rec.queued.get(id(p)) for p in payloads]
            for entry in entries:
                if entry is not None:
                    entry[1] = now
            if kind == "predict":
                rec.sample("predict_batch", float(len(payloads)))
            parent = entries[0][0] if entries and entries[0] is not None else None
            with rec.span("serving.server", parent=parent):
                return fn(app, payloads)

        return traced_runner

    inst.setattr(ServingApp, "handle", traced_handle)
    inst.setattr(MicroBatchScheduler, "submit", traced_submit)
    inst.setattr(
        ServingApp, "_run_predict_batch",
        runner("predict", ServingApp.__dict__["_run_predict_batch"]),
    )
    inst.setattr(
        ServingApp, "_run_select_batch",
        runner("select", ServingApp.__dict__["_run_select_batch"]),
    )
    return inst
