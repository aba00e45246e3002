"""Exporters for recorded traces.

Three consumers, three formats:

* :func:`chrome_trace` — the Chrome trace-event JSON object format,
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev (complete
  ``"X"`` duration events plus ``"C"`` counter events).
* :func:`render_tree` — a plain-text phase tree with durations, for
  terminals and ``repro select --trace PATH``.
* :func:`trace_metrics_lines` — flat ``repro_trace_*`` exposition lines
  merged into the serving ``/metrics`` endpoint.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Union

from repro.obs.tracer import SpanRecord, Tracer

__all__ = [
    "chrome_trace",
    "render_tree",
    "span_tree",
    "trace_metrics_lines",
    "write_chrome_trace",
]


def chrome_trace(tracer: Tracer, process_name: str = "repro") -> dict[str, Any]:
    """Convert a tracer snapshot into a Chrome trace-event JSON object.

    Timestamps are microseconds relative to the earliest recorded span,
    so the viewer timeline starts at zero.  Counters are emitted as a
    single ``"C"`` event stamped at the trace end.
    """
    spans = tracer.spans()
    origin = min((rec.start for rec in spans), default=0.0)
    tids = {}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for rec in spans:
        tid = tids.setdefault(rec.thread, len(tids) + 1)
        args = {k: _json_value(v) for k, v in rec.attributes.items()}
        args["span_id"] = rec.span_id
        if rec.parent_id is not None:
            args["parent_id"] = rec.parent_id
        events.append(
            {
                "name": rec.name,
                "cat": "repro",
                "ph": "X",
                "ts": (rec.start - origin) * 1e6,
                "dur": rec.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    counters = tracer.counters()
    maxima = tracer.maxima()
    if counters or maxima:
        end = max((rec.end for rec in spans), default=origin)
        samples = dict(counters)
        samples.update({f"max:{k}": v for k, v in maxima.items()})
        events.append(
            {
                "name": "repro.counters",
                "cat": "repro",
                "ph": "C",
                "ts": (end - origin) * 1e6,
                "pid": 1,
                "tid": 0,
                "args": {k: float(v) for k, v in sorted(samples.items())},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_spans": tracer.dropped},
    }


def write_chrome_trace(
    path: Union[str, Path],
    tracer: Tracer,
    process_name: str = "repro",
) -> Path:
    """Serialize :func:`chrome_trace` output to ``path``; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(chrome_trace(tracer, process_name), indent=2))
    return out


def span_tree(tracer: Tracer) -> list[tuple[SpanRecord, int]]:
    """Flatten spans into depth-first ``(record, depth)`` pairs.

    Children are ordered by start time under their parent; spans whose
    parent was evicted from the ring buffer surface as roots.
    """
    spans = sorted(tracer.spans(), key=lambda rec: (rec.start, rec.span_id))
    present = {rec.span_id for rec in spans}
    children: dict[int | None, list[SpanRecord]] = {}
    for rec in spans:
        parent = rec.parent_id if rec.parent_id in present else None
        children.setdefault(parent, []).append(rec)

    out: list[tuple[SpanRecord, int]] = []

    def visit(parent: int | None, depth: int) -> None:
        for rec in children.get(parent, []):
            out.append((rec, depth))
            visit(rec.span_id, depth + 1)

    visit(None, 0)
    return out


def render_tree(tracer: Tracer, attribute_limit: int = 4) -> str:
    """Render the span tree as indented text with millisecond durations."""
    lines = []
    for rec, depth in span_tree(tracer):
        attrs = ""
        if rec.attributes:
            shown = list(rec.attributes.items())[:attribute_limit]
            body = ", ".join(f"{k}={_short(v)}" for k, v in shown)
            extra = len(rec.attributes) - len(shown)
            if extra > 0:
                body += f", +{extra} more"
            attrs = f"  [{body}]"
        lines.append(f"{'  ' * depth}{rec.name}  {rec.duration * 1e3:.3f} ms{attrs}")
    counters = tracer.counters()
    maxima = tracer.maxima()
    if counters or maxima:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name} = {value:g}")
        for name, value in sorted(maxima.items()):
            lines.append(f"  max {name} = {value:.6g}")
    if tracer.dropped:
        lines.append(f"(dropped {tracer.dropped} spans: ring buffer full)")
    return "\n".join(lines)


_METRIC_SAFE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    return _METRIC_SAFE.sub("_", name).strip("_").lower()


def trace_metrics_lines(tracer: Tracer, prefix: str = "repro_trace") -> list[str]:
    """Aggregate spans into flat exposition lines for ``/metrics``.

    Per span name: total seconds and completion count.  Counters and
    maxima are emitted verbatim (sanitized), plus the drop counter.
    """
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for rec in tracer.spans():
        key = _metric_name(rec.name)
        totals[key] = totals.get(key, 0.0) + rec.duration
        counts[key] = counts.get(key, 0) + 1
    lines = []
    for key in sorted(totals):
        lines.append(f"{prefix}_span_{key}_seconds_total {totals[key]:.9g}")
        lines.append(f"{prefix}_span_{key}_count {counts[key]}")
    for name, value in sorted(tracer.counters().items()):
        lines.append(f"{prefix}_counter_{_metric_name(name)} {value:.9g}")
    for name, value in sorted(tracer.maxima().items()):
        lines.append(f"{prefix}_max_{_metric_name(name)} {value:.9g}")
    lines.append(f"{prefix}_spans_dropped {tracer.dropped}")
    return lines


def _json_value(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _short(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return text if len(text) <= 24 else text[:21] + "..."
