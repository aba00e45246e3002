"""Observability: hierarchical tracing through the sweep pipeline.

Zero-dependency spans, counters, and exporters.  The paper's headline
claims are about *where time goes* — per-observation sort vs. sweep
vs. reduction — and this package attributes wall-clock and numerical
behaviour to those phases end to end: ``select_bandwidth`` → selector →
backend → ``fastgrid`` blocks → resilient sweeps → serving requests.

Quick use::

    from repro import select_bandwidth
    from repro.obs import render_tree

    result = select_bandwidth(x, y, trace=True)
    trace = result.diagnostics["trace"]          # JSON-ready payload
    # or hold the tracer yourself:
    from repro.obs import Tracer, write_chrome_trace
    tracer = Tracer()
    select_bandwidth(x, y, trace=tracer)
    print(render_tree(tracer))
    write_chrome_trace("trace.json", tracer)     # chrome://tracing
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace,
    render_tree,
    span_tree,
    trace_metrics_lines,
    write_chrome_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    TracerLike,
    coerce_tracer,
    current_tracer,
    reset_worker_context,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "TracerLike",
    "chrome_trace",
    "coerce_tracer",
    "current_tracer",
    "render_tree",
    "reset_worker_context",
    "span_tree",
    "trace_metrics_lines",
    "use_tracer",
    "write_chrome_trace",
]
