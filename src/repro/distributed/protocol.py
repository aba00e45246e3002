"""Wire messages for the coordinator/worker fleet (JSON, checksummed).

The fleet speaks the serving stack's JSON-over-HTTP dialect: one JSON
object per request/response, ``Connection: close``, typed ``REPRO_*``
error payloads.  This module owns the message *shapes* so the
coordinator, the worker, and the chaos harness agree on them, and two
properties the distributed fold depends on:

**Bit-exact floats over JSON.**  ``json.dumps`` serialises a Python
float via ``repr``, the shortest string that round-trips to the same
IEEE-754 double, and ``json.loads`` parses back to the nearest double —
so a finite float64 survives the wire bit-for-bit.  That is what lets
the coordinator fold remote ``fastgrid_row_contributions`` rows through
:func:`~repro.utils.numeric.fold_rows` and still match the local
``numpy`` backend exactly.

**Checksummed payloads.**  Every compute response carries a SHA-256
over the row bytes *and* the block bounds, computed by the worker over
its own output.  A flipped bit on the wire (or in a worker's memory)
fails verification on the coordinator and the block is recomputed —
corruption degrades to "retry", never to a wrong CV sum.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.exceptions import DistributedProtocolError, PayloadChecksumError

__all__ = [
    "PROTOCOL_VERSION",
    "payload_checksum",
    "encode_compute_request",
    "decode_compute_request",
    "encode_compute_response",
    "decode_compute_rows",
    "encode_dataset",
    "decode_dataset",
]

#: Bumped on any incompatible message change; both sides verify it so
#: version skew surfaces as a typed protocol error, not a silent drift.
PROTOCOL_VERSION = 1


def payload_checksum(rows: np.ndarray, start: int, stop: int) -> str:
    """SHA-256 over the float64 row bytes, bound to the block bounds.

    Binding ``(start, stop)`` into the digest means a response carrying
    the *right* rows for the *wrong* block cannot pass verification.
    """
    arr = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(f"rows|v{PROTOCOL_VERSION}|{start}|{stop}|{arr.shape}|".encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def _require(body: dict[str, Any], key: str, kind: type) -> Any:
    value = body.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DistributedProtocolError(
            f"message field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def encode_dataset(
    dataset_id: str,
    x: np.ndarray,
    y: np.ndarray,
    grid: np.ndarray,
    kernel: str,
    dtype: str,
) -> dict[str, Any]:
    """The one-time staging message: data, grid, kernel, arithmetic."""
    return {
        "version": PROTOCOL_VERSION,
        "dataset_id": dataset_id,
        "x": np.asarray(x, dtype=np.float64).tolist(),
        "y": np.asarray(y, dtype=np.float64).tolist(),
        "grid": np.asarray(grid, dtype=np.float64).tolist(),
        "kernel": kernel,
        "dtype": dtype,
    }


def decode_dataset(body: dict[str, Any]) -> dict[str, Any]:
    """Validate a staging message; arrays come back as float64."""
    _check_version(body)
    dataset_id = _require(body, "dataset_id", str)
    kernel = _require(body, "kernel", str)
    dtype = str(body.get("dtype", "float64"))
    try:
        x = np.asarray(_require(body, "x", list), dtype=np.float64)
        y = np.asarray(_require(body, "y", list), dtype=np.float64)
        grid = np.asarray(_require(body, "grid", list), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DistributedProtocolError(
            f"dataset arrays are not numeric: {exc}"
        ) from exc
    if x.ndim != 1 or x.shape != y.shape or grid.ndim != 1 or not grid.size:
        raise DistributedProtocolError(
            f"dataset shapes malformed: x{x.shape}, y{y.shape}, grid{grid.shape}"
        )
    return {
        "dataset_id": dataset_id,
        "x": x,
        "y": y,
        "grid": grid,
        "kernel": kernel,
        "dtype": dtype,
    }


def encode_compute_request(
    dataset_id: str, block_id: int, epoch: int, start: int, stop: int
) -> dict[str, Any]:
    """One block lease: compute rows ``[start, stop)`` under ``epoch``."""
    return {
        "version": PROTOCOL_VERSION,
        "dataset_id": dataset_id,
        "block_id": int(block_id),
        "epoch": int(epoch),
        "start": int(start),
        "stop": int(stop),
    }


def decode_compute_request(body: dict[str, Any]) -> dict[str, Any]:
    """Validate a compute request on the worker side."""
    _check_version(body)
    out = {
        "dataset_id": _require(body, "dataset_id", str),
        "block_id": _require(body, "block_id", int),
        "epoch": _require(body, "epoch", int),
        "start": _require(body, "start", int),
        "stop": _require(body, "stop", int),
    }
    if not 0 <= out["start"] < out["stop"]:
        raise DistributedProtocolError(
            f"block bounds malformed: [{out['start']}, {out['stop']})"
        )
    return out


def encode_compute_response(
    request: dict[str, Any], rows: np.ndarray, worker_id: str
) -> dict[str, Any]:
    """The worker's partial result, checksummed over its own output."""
    arr = np.asarray(rows, dtype=np.float64)
    return {
        "version": PROTOCOL_VERSION,
        "block_id": int(request["block_id"]),
        "epoch": int(request["epoch"]),
        "start": int(request["start"]),
        "stop": int(request["stop"]),
        "rows": arr.tolist(),
        "checksum": payload_checksum(arr, request["start"], request["stop"]),
        "worker_id": worker_id,
    }


def decode_compute_rows(body: dict[str, Any], k: int) -> np.ndarray:
    """Verify shape + checksum of a compute response; return float64 rows.

    Raises :class:`PayloadChecksumError` on a digest mismatch and
    :class:`DistributedProtocolError` on structural damage (wrong row
    count, non-numeric entries, missing fields).
    """
    _check_version(body)
    start = _require(body, "start", int)
    stop = _require(body, "stop", int)
    checksum = _require(body, "checksum", str)
    try:
        rows = np.asarray(_require(body, "rows", list), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DistributedProtocolError(
            f"compute response rows are not numeric: {exc}"
        ) from exc
    if rows.ndim != 2 or rows.shape != (stop - start, k):
        raise DistributedProtocolError(
            f"compute response rows have shape {rows.shape}, "
            f"expected {(stop - start, k)}"
        )
    actual = payload_checksum(rows, start, stop)
    if actual != checksum:
        raise PayloadChecksumError(
            f"block {body.get('block_id')} rows[{start}:{stop}) checksum "
            f"mismatch: got {actual[:12]}…, response claims {checksum[:12]}…"
        )
    return rows


def _check_version(body: dict[str, Any]) -> None:
    version = body.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise DistributedProtocolError(
            f"protocol version skew: peer speaks v{version}, "
            f"this process speaks v{PROTOCOL_VERSION}"
        )
