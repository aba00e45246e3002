"""Tests for the process-pool substrate."""

import os

import numpy as np
import pytest

from repro.exceptions import PoolStateError, ValidationError
from repro.parallel import WorkerPool, available_workers


def _square(v):
    return v * v


_INIT_FLAG = "REPRO_TEST_POOL_INIT"


def _mark_initialized(value):
    os.environ[_INIT_FLAG] = value


def _read_init_flag(_item):
    return os.environ.get(_INIT_FLAG, "uninitialized")


def _block_vector(scale, start, stop):
    return scale * np.arange(start, stop, dtype=float)


class TestAvailableWorkers:
    def test_explicit_request_honoured(self):
        assert available_workers(3) == 3

    def test_default_positive(self):
        assert available_workers() >= 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            available_workers(0)


class TestWorkerPoolLifecycle:
    def test_context_manager_opens_and_closes(self):
        with WorkerPool(2) as pool:
            assert pool.is_open or pool.workers == 1
        assert not pool.is_open

    def test_open_idempotent(self):
        pool = WorkerPool(2)
        try:
            pool.open()
            pool.open()
            assert pool.is_open
        finally:
            pool.close()

    def test_close_idempotent(self):
        pool = WorkerPool(2)
        pool.open()
        pool.close()
        pool.close()
        assert not pool.is_open

    def test_terminate_idempotent(self):
        pool = WorkerPool(2)
        pool.open()
        pool.terminate()
        pool.terminate()
        assert not pool.is_open and pool.is_closed

    def test_closed_pool_reentry_is_typed(self):
        pool = WorkerPool(2)
        pool.open()
        pool.close()
        with pytest.raises(PoolStateError, match="closed worker pool"):
            pool.open()
        with pytest.raises(PoolStateError):
            pool.map(_square, [1, 2])

    def test_never_opened_pool_close_then_reentry(self):
        pool = WorkerPool(2)
        pool.close()  # retiring an unopened pool is fine...
        with pytest.raises(PoolStateError):
            pool.open()  # ...but it stays retired

    def test_exit_on_exception_terminates(self):
        pool = WorkerPool(2)
        with pytest.raises(RuntimeError):
            with pool:
                raise RuntimeError("abandon the computation")
        assert pool.is_closed and not pool.is_open

    def test_rebuild_swaps_workers_and_counts(self):
        with WorkerPool(2) as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            pool.rebuild()
            assert pool.rebuilds == 1
            assert pool.map(_square, [3]) == [9]

    def test_rebuild_reruns_the_initializer(self, monkeypatch):
        # Regression: rebuild() used to refork *without* the caller's
        # initializer/initargs, so replacement workers came up with none
        # of the state the original fork had (for the shm backend: no
        # attached workspace, every block call dead on arrival).  The
        # flag lives in worker environments only — the parent never sets
        # it — so a refork that skips the initializer reads
        # "uninitialized".
        monkeypatch.delenv(_INIT_FLAG, raising=False)
        with WorkerPool(
            2, initializer=_mark_initialized, initargs=("ready",)
        ) as pool:
            assert set(pool.map(_read_init_flag, range(4))) == {"ready"}
            pool.rebuild()
            assert set(pool.map(_read_init_flag, range(4))) == {"ready"}
        assert _INIT_FLAG not in os.environ

    def test_rebuild_of_closed_pool_rejected(self):
        pool = WorkerPool(2)
        pool.open()
        pool.close()
        with pytest.raises(PoolStateError, match="rebuild"):
            pool.rebuild()


class TestExecution:
    def test_map_parallel(self):
        with WorkerPool(2) as pool:
            assert pool.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_map_serial_fallback(self):
        assert WorkerPool(1).map(_square, [2, 3]) == [4, 9]

    def test_starmap(self):
        with WorkerPool(2) as pool:
            got = pool.starmap(_block_vector, [(2.0, 0, 3), (3.0, 3, 5)])
        np.testing.assert_array_equal(got[0], [0.0, 2.0, 4.0])
        np.testing.assert_array_equal(got[1], [9.0, 12.0])


def _traced_unit(value):
    from repro.obs import current_tracer

    tracer = current_tracer()
    with tracer.span("unit", value=value):
        tracer.counter("units")
    return value * 2


class TestTracedStarmap:
    def test_worker_spans_graft_under_the_callers_span(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with WorkerPool(2) as pool, use_tracer(tracer):
            with tracer.span("caller") as caller:
                results = pool.map(_traced_unit, [1, 2, 3])
        assert results == [2, 4, 6]
        units = [s for s in tracer.spans() if s.name == "unit"]
        assert [s.attributes["value"] for s in units] == [1, 2, 3]
        assert all(s.parent_id == caller.span_id for s in units)
        assert tracer.counters()["units"] == 3.0

    def test_blocked_shm_sweep_keeps_its_span_tree(self):
        # Two workers, six 100-row blocks: the same (span, parent) pairs
        # the sweep recorded before its workers' spans were shipped home
        # by the pool rather than by the sweep itself.
        from collections import Counter

        from repro.core.blockwise import cv_scores_blocked_shm
        from repro.obs import Tracer, use_tracer

        rng = np.random.default_rng(0)
        x = rng.uniform(size=600)
        y = np.sin(6 * x) + rng.normal(0.0, 0.3, 600)
        grid = np.linspace(0.02, 0.5, 12)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = cv_scores_blocked_shm(x, y, grid, workers=2, block_rows=100)
        by_id = {s.span_id: s for s in tracer.spans()}
        tree = Counter(
            (s.name, by_id[s.parent_id].name if s.parent_id else None)
            for s in tracer.spans()
        )
        assert tree == Counter({
            ("blocked-shm-sweep", None): 1,
            ("plan", "blocked-shm-sweep"): 1,
            ("block-sweep", "blocked-shm-sweep"): 1,
            ("reduce", "blocked-shm-sweep"): 1,
            ("block", "block-sweep"): 6,
            ("sort", "block"): 6,
            ("sweep", "block"): 6,
            ("reduction", "block"): 6,
        })
        assert "numeric.empty_windows" in tracer.counters()
        plain = cv_scores_blocked_shm(x, y, grid, workers=2, block_rows=100)
        assert np.array_equal(traced, plain)
