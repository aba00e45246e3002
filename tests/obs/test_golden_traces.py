"""Golden-trace regression tests: span names, nesting and attributes.

The span vocabulary is part of the public observability contract — the
``repro trace`` output, the Chrome trace JSON and the ``/metrics``
aggregation all key off these names.  These tests freeze the exact
``(depth, name)`` tree each backend emits on a single-chunk problem, so
a renamed or re-nested span fails loudly rather than silently breaking
dashboards.  The Chrome exporter output is additionally validated
against a JSON schema of the trace-event format.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cuda_port  # noqa: F401 - registers gpusim + gpusim-tiled
from repro.core.api import select_bandwidth
from repro.obs import Tracer, chrome_trace, span_tree

N = 32
K = 5


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, N)
    y = np.sin(6.0 * x) + rng.normal(0.0, 0.3, N)
    return x, y


def run_traced(x, y, backend, **options):
    tracer = Tracer()
    result = select_bandwidth(
        x, y, backend=backend, n_bandwidths=K, trace=tracer, **options
    )
    return tracer, result


def shape(tracer):
    return [(depth, rec.name) for rec, depth in span_tree(tracer)]


SWEEP = [(6, "sort"), (6, "sweep"), (6, "reduction")]

GOLDEN = {
    "python": [
        (0, "select_bandwidth"),
        (1, "grid-search"),
        (2, "evaluate-grid"),
        (3, "backend:python"),
        (4, "fastgrid-python"),
        (2, "argmin"),
    ],
    "numpy": [
        (0, "select_bandwidth"),
        (1, "grid-search"),
        (2, "evaluate-grid"),
        (3, "backend:numpy"),
        (4, "fastgrid"),
        (5, "block"),
        *SWEEP,
        (2, "argmin"),
    ],
    "gpusim": [
        (0, "select_bandwidth"),
        (1, "grid-search"),
        (2, "evaluate-grid"),
        (3, "backend:gpusim"),
        (4, "cuda-program"),
        (5, "upload"),
        (5, "main-kernel"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (5, "device-argmin"),
        (2, "argmin"),
    ],
    "gpusim-tiled": [
        (0, "select_bandwidth"),
        (1, "grid-search"),
        (2, "evaluate-grid"),
        (3, "backend:gpusim-tiled"),
        (4, "cuda-program-tiled"),
        (5, "upload"),
        (5, "main-kernel"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (5, "device-argmin"),
        (2, "argmin"),
    ],
    # blocked-shm on three workers with no row cap: the sizing rule plans
    # the whole N=32 sample as one block, which is split into one block
    # per worker, each adopted from its worker.
    "multicore": [
        (0, "select_bandwidth"),
        (1, "grid-search"),
        (2, "evaluate-grid"),
        (3, "backend:blocked-shm"),
        (4, "blocked-shm-sweep"),
        (5, "plan"),
        (5, "block-sweep"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (5, "reduce"),
        (2, "argmin"),
    ],
    # numpy capped at N/2 rows: two blocks folded in one fastgrid span.
    "blocked": [
        (0, "select_bandwidth"),
        (1, "grid-search"),
        (2, "evaluate-grid"),
        (3, "backend:numpy"),
        (4, "fastgrid"),
        (5, "block"),
        *SWEEP,
        (5, "block"),
        *SWEEP,
        (2, "argmin"),
    ],
    "blocked-shm": [
        (0, "select_bandwidth"),
        (1, "grid-search"),
        (2, "evaluate-grid"),
        (3, "backend:blocked-shm"),
        (4, "blocked-shm-sweep"),
        (5, "plan"),
        (5, "block-sweep"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (6, "block"),
        (7, "sort"),
        (7, "sweep"),
        (7, "reduction"),
        (5, "reduce"),
        (2, "argmin"),
    ],
}


class TestGoldenTrees:
    def test_python_tree(self, sample):
        tracer, _ = run_traced(*sample, "python")
        assert shape(tracer) == GOLDEN["python"]

    def test_numpy_tree(self, sample):
        tracer, _ = run_traced(*sample, "numpy")
        assert shape(tracer) == GOLDEN["numpy"]

    def test_gpusim_tree(self, sample):
        tracer, _ = run_traced(*sample, "gpusim", mode="fast")
        assert shape(tracer) == GOLDEN["gpusim"]

    def test_gpusim_tiled_tree(self, sample):
        # tile_rows = N/2 forces exactly two tiles.
        tracer, _ = run_traced(*sample, "gpusim-tiled", tile_rows=N // 2)
        assert shape(tracer) == GOLDEN["gpusim-tiled"]

    def test_multicore_tree(self, sample):
        tracer, _ = run_traced(*sample, "blocked-shm", workers=3)
        assert shape(tracer) == GOLDEN["multicore"]

    def test_blocked_tree(self, sample):
        tracer, _ = run_traced(*sample, "numpy", block_rows=N // 2)
        assert shape(tracer) == GOLDEN["blocked"]

    def test_blocked_shm_tree(self, sample):
        # block_rows = N/2 forces exactly two adopted worker blocks.
        tracer, _ = run_traced(
            *sample, "blocked-shm", workers=2, block_rows=N // 2
        )
        assert shape(tracer) == GOLDEN["blocked-shm"]

    def test_blocked_plan_attributes(self, sample):
        tracer, _ = run_traced(
            *sample, "blocked-shm", workers=2, memory_budget="64KiB"
        )
        by_name = {rec.name: rec for rec, _ in span_tree(tracer)}
        plan = by_name["plan"].attributes
        assert plan["n"] == N and plan["k"] == K
        assert plan["block_rows"] >= 1
        assert plan["n_blocks"] == -(-N // plan["block_rows"])
        assert plan["budget_bytes"] == 64 * 1024
        assert plan["predicted_peak_bytes"] <= plan["budget_bytes"]

    def test_resilient_tree_structure(self, sample):
        tracer, _ = run_traced(*sample, "numpy", resilience=True)
        names = [name for _, name in shape(tracer)]
        prefix = ["select_bandwidth", "grid-search", "evaluate-grid",
                  "resilient-sweep", "candidate", "wave"]
        assert names[: len(prefix)] == prefix
        assert names.count("block") >= 1
        assert names[-1] == "argmin"


class TestGoldenAttributes:
    def test_root_span_attributes(self, sample):
        tracer, result = run_traced(*sample, "numpy")
        root = span_tree(tracer)[0][0]
        assert root.attributes["method"] == "grid"
        assert root.attributes["backend"] == "numpy"
        assert root.attributes["n"] == N
        assert root.attributes["h_opt"] == result.bandwidth
        assert root.attributes["backend_used"] == "numpy"

    def test_fastgrid_attributes(self, sample):
        tracer, _ = run_traced(*sample, "numpy")
        by_name = {rec.name: rec for rec, _ in span_tree(tracer)}
        fg = by_name["fastgrid"].attributes
        assert fg["n"] == N and fg["k"] == K
        assert fg["kernel"] == "epanechnikov"
        assert fg["dtype"] == "float64"
        block = by_name["block"].attributes
        assert (block["start"], block["stop"]) == (0, N)
        assert by_name["sort"].attributes["rows"] == N

    def test_diagnostics_carry_trace_payload(self, sample):
        _, result = run_traced(*sample, "numpy")
        payload = result.diagnostics["trace"]
        assert payload["spans"][0]["name"] in {
            name for _, name in GOLDEN["numpy"]
        }
        assert payload["dropped"] == 0

    def test_counters_present(self, sample):
        tracer, _ = run_traced(*sample, "numpy")
        assert "numeric.empty_windows" in tracer.counters()
        assert "numeric.kahan_compensation" in tracer.maxima()


CHROME_TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit", "otherData"],
    "properties": {
        "displayTimeUnit": {"const": "ms"},
        "otherData": {
            "type": "object",
            "required": ["dropped_spans"],
            "properties": {
                "dropped_spans": {"type": "integer", "minimum": 0}
            },
        },
        "traceEvents": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "ph": {"enum": ["M", "X", "C"]},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "args": {"type": "object"},
                },
                "allOf": [
                    {
                        "if": {"properties": {"ph": {"const": "X"}}},
                        "then": {
                            "required": ["ts", "dur", "cat", "args"],
                            "properties": {
                                "ts": {"type": "number", "minimum": 0},
                                "dur": {
                                    "type": "number",
                                    "exclusiveMinimum": 0,
                                },
                                "args": {
                                    "type": "object",
                                    "required": ["span_id"],
                                },
                            },
                        },
                    }
                ],
            },
        },
    },
}


class TestChromeTraceSchema:
    def test_exported_document_validates(self, sample):
        jsonschema = pytest.importorskip("jsonschema")
        tracer, _ = run_traced(*sample, "numpy")
        jsonschema.validate(chrome_trace(tracer), CHROME_TRACE_SCHEMA)

    def test_gpusim_document_validates(self, sample):
        jsonschema = pytest.importorskip("jsonschema")
        tracer, _ = run_traced(*sample, "gpusim", mode="fast")
        jsonschema.validate(chrome_trace(tracer), CHROME_TRACE_SCHEMA)
