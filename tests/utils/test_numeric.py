"""The canonical strict row fold, :func:`repro.utils.numeric.fold_rows`.

Every CV curve is folded by it, so its bits are a contract: one
``np.add.accumulate`` down axis 0 must give the bytes of the plain
per-row loop ``total += row``, continued across batch boundaries.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.utils.numeric import FOLD_CHUNK_ROWS, fold_rows

K = 13


def _rows(m: int, seed: int) -> np.ndarray:
    # Mixed signs and magnitudes: any re-association shows in the bits.
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, K)) * 10.0 ** rng.integers(-8, 9, size=(m, K))


def _loop(rows: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, list]:
    total = total.copy()
    partials = [total.copy()]
    for row in rows:
        np.add(total, row, out=total)
        partials.append(total.copy())
    return total, partials


@pytest.mark.parametrize("m", [0, 1, 7, 8192])
def test_accumulate_gives_the_per_row_loop_bytes(m):
    rows = _rows(m, m)
    start = np.random.default_rng(1).normal(size=K) * 1e3
    total = start.copy()
    assert fold_rows(rows, total) is total
    assert total.tobytes() == _loop(rows, start)[0].tobytes()
    # A fresh fold starts from zeros.
    assert fold_rows(rows).tobytes() == _loop(rows, np.zeros(K))[0].tobytes()


@pytest.mark.parametrize("m", [0, 1, 7, 8192])
def test_continued_fold_is_one_fold(m):
    rows = _rows(m, m + 1)
    whole = fold_rows(rows)
    total = np.zeros(K)
    for lo in range(0, m, 5):
        fold_rows(rows[lo:lo + 5], total)
    assert total.tobytes() == whole.tobytes()


def test_running_workspace_holds_every_partial_total():
    rows = _rows(7, 3)
    start = np.full(K, 0.1)
    running = np.full((10, K), np.nan)
    total = fold_rows(rows, start.copy(), running=running)
    _, partials = _loop(rows, start)
    assert running[:8].tobytes() == np.stack(partials).tobytes()
    assert running[7].tobytes() == total.tobytes()
    assert np.isnan(running[8:]).all()


def test_the_bytes_check_sees_a_reassociated_sum():
    # Pairwise summation (np.sum along a contiguous axis) re-associates;
    # the fold must not.
    rows = _rows(8192, 8192)
    pairwise = np.ascontiguousarray(rows.T).sum(axis=1)
    assert fold_rows(rows).tobytes() != pairwise.tobytes()


def test_spans_of_chunks_fold_as_one():
    # More rows than one workspace holds: the chunked fold is still the
    # per-row loop, continued total included.
    m = 2 * FOLD_CHUNK_ROWS + 3
    rows = _rows(m, 5)
    start = np.full(K, -2.5)
    total = fold_rows(rows, start.copy())
    assert total.tobytes() == _loop(rows, start)[0].tobytes()


def test_folding_a_tall_matrix_allocates_one_chunk_of_workspace():
    k = 50
    m = 8 * FOLD_CHUNK_ROWS
    rows = np.ones((m, k))
    total = np.zeros(k)
    tracemalloc.start()
    try:
        fold_rows(rows, total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (FOLD_CHUNK_ROWS + 1) * k * 8
    assert peak < rows.nbytes / 4
    assert total.tolist() == [float(m)] * k
