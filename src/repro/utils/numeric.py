"""Tolerance-based float comparison helpers.

The lint rule NUM001 bans bare ``==``/``!=`` between float expressions:
around the CV argmin the score curve is flat to ~1e-12, so exact
equality makes tie-breaking depend on summation order (chunking,
backend, thread count).  These helpers centralise the tolerances so
every comparison in the library breaks ties the same way.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FLOAT_ATOL",
    "FLOAT_RTOL",
    "FOLD_CHUNK_ROWS",
    "allclose",
    "compensated_sum",
    "fold_rows",
    "int_power",
    "is_zero",
    "isclose",
]

#: Rows per accumulate when :func:`fold_rows` owns its workspace.
FOLD_CHUNK_ROWS = 4096

#: Absolute tolerance for "is this exactly the same float" questions —
#: a hair above accumulated rounding in the O(n²) double-precision sums.
FLOAT_ATOL = 1e-12

#: Relative tolerance for comparing quantities of arbitrary magnitude.
FLOAT_RTOL = 1e-9


def isclose(
    a: float, b: float, *, rtol: float = FLOAT_RTOL, atol: float = FLOAT_ATOL
) -> bool:
    """Scalar tolerance comparison (``|a−b| <= atol + rtol·|b|``)."""
    return bool(np.isclose(a, b, rtol=rtol, atol=atol))


def allclose(
    a: np.ndarray,
    b: np.ndarray,
    *,
    rtol: float = FLOAT_RTOL,
    atol: float = FLOAT_ATOL,
) -> bool:
    """Array tolerance comparison with the project-wide tolerances."""
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))


def is_zero(value: float, *, atol: float = FLOAT_ATOL) -> bool:
    """Whether ``value`` is zero up to absolute tolerance."""
    return bool(abs(value) <= atol)


def int_power(base: np.ndarray, power: int) -> np.ndarray:
    """``base ** power`` for integer ``power >= 1`` by square-and-multiply.

    The library's canonical integer power: a left-to-right binary
    exponentiation over the exponent's bits (MSB first) —
    ``r = x; then per lower bit: r = r·r, and r = r·x when the bit is
    set``.  Because every step is an exactly-rounded IEEE multiply, the
    chain produces the *same bits* for an element whatever array it sits
    in, so the fast-grid row contributions stay partition-invariant and
    the float32 sweep stays bit-identical to the gpusim programs, which
    run the same binned path.  numpy's own ``x ** p`` cannot serve as the
    contract: its SIMD ``pow`` differs from scalar libm ``pow`` by an ulp
    on a few percent of inputs, and which one runs depends on the CPU and
    the array layout.

    The association order is part of the byte-identity contract: changing
    it moves curve bits and so invalidates every cached curve.
    """
    if power < 1:
        raise ValueError(f"int_power requires power >= 1, got {power}")
    bit = 1
    while (bit << 1) <= power:
        bit <<= 1
    result = base
    bit >>= 1
    while bit:
        result = result * result
        if power & bit:
            result = result * base
        bit >>= 1
    return result


def fold_rows(
    rows: np.ndarray,
    total: np.ndarray | None = None,
    *,
    running: np.ndarray | None = None,
) -> np.ndarray:
    """Strict left-fold of a 2-D array's rows, in index order.

    ``total <- ((total + rows[0]) + rows[1]) + ...`` with one float64
    addition per row and column: one ``np.add.accumulate`` down axis 0,
    which adds each row to the running sum before it, in order.  This is
    the library's *canonical* reduction order for per-observation CV
    contributions: because each observation's k-vector is computed
    independently of how rows are batched, folding them in global row
    order makes the reduced curve **bit-for-bit independent of the
    partition** — any chunk size, block size, or worker count reproduces
    the identical result.  (Pairwise reductions such as
    ``np.sum``/``einsum`` re-associate with shape and would not.)

    Pass ``total`` to continue a fold across batch boundaries; it must be
    a float64 vector matching ``rows.shape[1]`` and is updated in place.
    ``running``, a float64 array of at least ``len(rows) + 1`` rows, is
    the workspace to accumulate in; on return its row ``i`` holds the
    total before ``rows[i]`` was added and row ``len(rows)`` the result.
    Without one, the fold runs :data:`FOLD_CHUNK_ROWS` rows at a time in
    one reused workspace — a continued fold is the same fold, so the
    bytes match, and folding an n×k matrix costs O(k) extra memory per
    chunk row rather than a second n×k copy.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if total is None:
        total = np.zeros(rows.shape[-1], dtype=np.float64)
    m = rows.shape[0]
    if running is None:
        running = np.empty(
            (min(m, FOLD_CHUNK_ROWS) + 1, rows.shape[-1]), dtype=np.float64
        )
        for lo in range(0, m, FOLD_CHUNK_ROWS):
            _accumulate(rows[lo : lo + FOLD_CHUNK_ROWS], total, running)
        return total
    _accumulate(rows, total, running)
    return total


def _accumulate(rows: np.ndarray, total: np.ndarray, running: np.ndarray) -> None:
    m = rows.shape[0]
    acc = running[: m + 1]
    acc[0] = total
    acc[1:] = rows
    np.add.accumulate(acc, axis=0, out=acc)
    total[...] = acc[m]


def compensated_sum(values: np.ndarray) -> tuple[float, float]:
    """Neumaier compensated sum: ``(plain_total, compensation)``.

    Running-sum sweeps accumulate drift that grows with the number of
    partial sums (Langrené & Warin); the observability layer uses the
    compensation term as a *measurement* of that drift without changing
    any returned result — callers keep using the plain total.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    total = 0.0
    comp = 0.0
    for v in flat.tolist():
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total, comp
