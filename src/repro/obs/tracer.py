"""Hierarchical in-process tracing: spans, counters, context propagation.

The tracer is deliberately zero-dependency and pay-for-what-you-use:

* ``NULL_TRACER`` (the default everywhere) satisfies the same interface
  with constant-time no-ops, so instrumented code costs one attribute
  check when tracing is off.
* An active :class:`Tracer` records completed spans into a bounded
  ring buffer (old spans are dropped, never an unbounded list) and
  aggregates named counters / running maxima under a lock.
* Span nesting is propagated through :mod:`contextvars`, which follows
  both threads and asyncio tasks; forked pool workers call
  :func:`reset_worker_context` so child processes never inherit the
  parent's active span.

Timestamps come from an injectable monotonic ``clock`` (default
:func:`time.perf_counter`) so golden-trace tests can be deterministic.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Iterator, Mapping, Sequence, Union

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "TracerLike",
    "coerce_tracer",
    "current_tracer",
    "reset_worker_context",
    "use_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named, timed phase with nesting and attributes."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float
    thread: str
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds between span entry and exit."""
        return self.end - self.start


class _SpanHandle:
    """Live span context manager; records a :class:`SpanRecord` on exit."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "start", "attributes", "_token")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: int | None,
        attributes: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_span_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.start = 0.0
        self._token: Any = None

    def set(self, **attributes: Any) -> "_SpanHandle":
        """Attach (or overwrite) attributes on the live span."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._token = _ACTIVE_SPAN.set(self)
        self.start = self._tracer.clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end = self._tracer.clock()
        _ACTIVE_SPAN.reset(self._token)
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._record(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self.start,
                end=end,
                thread=threading.current_thread().name,
                attributes=self.attributes,
            )
        )


class _NullSpan:
    """Shared no-op span handle returned by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        """Ignore attributes (no-op)."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a constant-time no-op.

    Instrumentation sites guard data gathering behind ``tracer.enabled``
    so the only unconditional cost of tracing-off is returning the
    shared ``_NULL_SPAN`` singleton.
    """

    __slots__ = ()

    enabled: bool = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """Return the shared no-op span handle."""
        return _NULL_SPAN

    def counter(self, name: str, amount: float = 1.0) -> None:
        """Discard the increment."""

    def record_max(self, name: str, value: float) -> None:
        """Discard the sample."""

    def spans(self) -> list[SpanRecord]:
        """No spans are ever recorded."""
        return []

    def counters(self) -> dict[str, float]:
        """No counters are ever recorded."""
        return {}

    def maxima(self) -> dict[str, float]:
        """No maxima are ever recorded."""
        return {}

    @property
    def dropped(self) -> int:
        """No spans are ever recorded, so none are ever dropped."""
        return 0


NULL_TRACER = NullTracer()


class Tracer:
    """Thread-safe in-process tracer with bounded ring-buffer storage.

    Parameters
    ----------
    max_events:
        Ring-buffer capacity; when full, the *oldest* spans are dropped
        and counted in ``dropped``.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    enabled: bool = True

    def __init__(
        self,
        max_events: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self.clock = clock
        self._lock = threading.Lock()
        self._events: deque[SpanRecord] = deque(maxlen=max_events)
        self._counters: dict[str, float] = {}
        self._maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._dropped = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a span context manager nested under the active span (if any).

        The parent is taken from the ambient context variable only when
        the active span belongs to *this* tracer, so independent tracers
        never cross-link their trees.
        """
        return _SpanHandle(self, name, self.active_span_id(), dict(attributes))

    def active_span_id(self) -> int | None:
        """Id of the ambient span if it belongs to this tracer, else ``None``."""
        active = _ACTIVE_SPAN.get(None)
        if isinstance(active, _SpanHandle) and active._tracer is self:
            return active.span_id
        return None

    def counter(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def record_max(self, name: str, value: float) -> None:
        """Keep the running maximum of a named gauge (e.g. float drift)."""
        with self._lock:
            prev = self._maxima.get(name)
            if prev is None or value > prev:
                self._maxima[name] = value

    def adopt(
        self,
        records: Sequence[Mapping[str, Any]],
        parent_id: int | None = None,
    ) -> None:
        """Graft spans recorded in another process into this tracer.

        ``records`` is the portable form produced by
        :meth:`export_spans` in a worker (fork-started workers share the
        parent's ``CLOCK_MONOTONIC`` origin, so timestamps align).  Span
        ids are re-issued from this tracer's sequence and the remote
        tree's roots are re-parented under ``parent_id``.
        """
        # Two passes: ring-buffer order is completion order (children close
        # before parents), so all remote ids must be mapped before any
        # parent link is rewritten.
        id_map: dict[int, int] = {
            int(rec["span_id"]): self._next_span_id() for rec in records
        }
        for rec in records:
            new_id = id_map[int(rec["span_id"])]
            old_parent = rec.get("parent_id")
            if old_parent is None:
                new_parent: int | None = parent_id
            else:
                new_parent = id_map.get(int(old_parent), parent_id)
            self._record(
                SpanRecord(
                    name=str(rec["name"]),
                    span_id=new_id,
                    parent_id=new_parent,
                    start=float(rec["start"]),
                    end=float(rec["end"]),
                    thread=str(rec.get("thread", "worker")),
                    attributes=dict(rec.get("attributes", {})),
                )
            )

    def merge_counters(self, counters: Mapping[str, float], maxima: Mapping[str, float]) -> None:
        """Fold counters/maxima exported from a worker into this tracer."""
        with self._lock:
            for name, amount in counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + amount
            for name, value in maxima.items():
                prev = self._maxima.get(name)
                if prev is None or value > prev:
                    self._maxima[name] = value

    # -- reading -----------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """Snapshot of recorded spans, oldest first."""
        with self._lock:
            return list(self._events)

    def counters(self) -> dict[str, float]:
        """Snapshot of the counter table."""
        with self._lock:
            return dict(self._counters)

    def maxima(self) -> dict[str, float]:
        """Snapshot of the running-maximum table."""
        with self._lock:
            return dict(self._maxima)

    @property
    def dropped(self) -> int:
        """Number of spans evicted from the ring buffer so far."""
        with self._lock:
            return self._dropped

    def export_spans(self) -> list[dict[str, Any]]:
        """Spans as JSON-ready dicts (the portable form ``adopt`` accepts)."""
        return [
            {
                "name": rec.name,
                "span_id": rec.span_id,
                "parent_id": rec.parent_id,
                "start": rec.start,
                "end": rec.end,
                "thread": rec.thread,
                "attributes": dict(rec.attributes),
            }
            for rec in self.spans()
        ]

    def to_payload(self) -> dict[str, Any]:
        """Full JSON-ready snapshot: spans + counters + maxima + drop count."""
        return {
            "spans": self.export_spans(),
            "counters": self.counters(),
            "maxima": self.maxima(),
            "dropped": self.dropped,
        }

    # -- internals ---------------------------------------------------------

    def _next_span_id(self) -> int:
        return next(self._ids)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._events) == self.max_events:
                self._dropped += 1
            self._events.append(record)


TracerLike = Union[Tracer, NullTracer]

_ACTIVE_TRACER: ContextVar[TracerLike | None] = ContextVar("repro_obs_tracer", default=None)
_ACTIVE_SPAN: ContextVar[Any] = ContextVar("repro_obs_span", default=None)


def current_tracer() -> TracerLike:
    """The tracer installed in the current context (``NULL_TRACER`` if none)."""
    tracer = _ACTIVE_TRACER.get(None)
    return tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: TracerLike) -> Iterator[TracerLike]:
    """Install ``tracer`` as the ambient tracer for the enclosed block."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


def coerce_tracer(value: Union[bool, TracerLike, None]) -> TracerLike:
    """Normalize the public ``trace=`` argument into a tracer instance.

    ``True`` builds a fresh :class:`Tracer`; ``None``/``False`` mean
    disabled; a :class:`Tracer`/:class:`NullTracer` passes through.
    """
    if value is None or value is False:
        return NULL_TRACER
    if value is True:
        return Tracer()
    if isinstance(value, (Tracer, NullTracer)):
        return value
    raise TypeError(
        f"trace must be a bool, Tracer, NullTracer, or None, got {type(value).__name__}"
    )


def reset_worker_context() -> None:
    """Clear inherited tracer/span context in a forked pool worker.

    ``fork`` copies the parent's context variables; a worker that kept
    them would try to record into a tracer object it only holds a dead
    copy of.  Pool initializers call this so workers start traced-off.
    """
    _ACTIVE_TRACER.set(None)
    _ACTIVE_SPAN.set(None)
