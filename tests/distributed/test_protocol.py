"""Wire-message shapes: bit-exact floats, checksums, version skew."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    decode_compute_request,
    decode_compute_rows,
    decode_dataset,
    encode_compute_request,
    encode_compute_response,
    encode_dataset,
    payload_checksum,
)
from repro.exceptions import (
    DistributedProtocolError,
    PayloadChecksumError,
    error_code,
)


def _wire(message: dict) -> dict:
    """A real JSON round trip — what the HTTP transport actually does."""
    return json.loads(json.dumps(message))


class TestDatasetMessages:
    def test_roundtrip_is_bit_exact(self) -> None:
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0, 10, 50))
        y = rng.normal(0, 1, 50)
        grid = np.geomspace(0.01, 3.0, 9)
        body = _wire(encode_dataset("ds1", x, y, grid, "epanechnikov", "float64"))
        decoded = decode_dataset(body)
        assert decoded["dataset_id"] == "ds1"
        assert decoded["kernel"] == "epanechnikov"
        assert np.array_equal(decoded["x"], x)
        assert np.array_equal(decoded["y"], y)
        assert np.array_equal(decoded["grid"], grid)

    def test_mismatched_shapes_rejected(self) -> None:
        body = encode_dataset(
            "ds1", np.arange(5.0), np.arange(4.0), np.ones(3), "uniform", "float64"
        )
        with pytest.raises(DistributedProtocolError):
            decode_dataset(body)

    def test_non_numeric_arrays_rejected(self) -> None:
        body = encode_dataset(
            "ds1", np.arange(5.0), np.arange(5.0), np.ones(3), "uniform", "float64"
        )
        body["x"] = ["a", "b", "c", "d", "e"]
        with pytest.raises(DistributedProtocolError):
            decode_dataset(body)


class TestComputeRequest:
    def test_roundtrip(self) -> None:
        req = _wire(encode_compute_request("ds1", 3, 1, 64, 128))
        decoded = decode_compute_request(req)
        assert decoded == {
            "dataset_id": "ds1",
            "block_id": 3,
            "epoch": 1,
            "start": 64,
            "stop": 128,
        }

    def test_bool_is_not_an_int(self) -> None:
        req = encode_compute_request("ds1", 0, 0, 0, 8)
        req["epoch"] = True
        with pytest.raises(DistributedProtocolError):
            decode_compute_request(req)

    @pytest.mark.parametrize("start,stop", [(5, 5), (8, 4), (-1, 4)])
    def test_malformed_bounds_rejected(self, start: int, stop: int) -> None:
        req = encode_compute_request("ds1", 0, 0, start, stop)
        with pytest.raises(DistributedProtocolError):
            decode_compute_request(req)


class TestComputeResponse:
    def _response(self, rows: np.ndarray) -> dict:
        req = encode_compute_request("ds1", 0, 0, 0, rows.shape[0])
        return _wire(encode_compute_response(req, rows, "w0"))

    def test_rows_survive_the_wire_bit_for_bit(self) -> None:
        rng = np.random.default_rng(11)
        rows = rng.normal(0, 1, (6, 4))
        decoded = decode_compute_rows(self._response(rows), k=4)
        assert decoded.dtype == np.float64
        assert np.array_equal(decoded, rows)

    def test_corrupted_row_fails_checksum(self) -> None:
        rows = np.ones((4, 3))
        body = self._response(rows)
        body["rows"][2][1] = 1.0 + 1e-12
        with pytest.raises(PayloadChecksumError) as excinfo:
            decode_compute_rows(body, k=3)
        assert error_code(excinfo.value) == "REPRO_DIST_CHECKSUM"

    def test_right_rows_for_the_wrong_block_fail(self) -> None:
        rows = np.ones((4, 3))
        body = self._response(rows)
        # Same rows, shifted bounds: the bounds are part of the digest.
        body["start"], body["stop"] = 4, 8
        with pytest.raises(PayloadChecksumError):
            decode_compute_rows(body, k=3)

    def test_wrong_shape_is_structural_not_checksum(self) -> None:
        rows = np.ones((4, 3))
        body = self._response(rows)
        body["rows"] = body["rows"][:-1]
        with pytest.raises(DistributedProtocolError):
            decode_compute_rows(body, k=3)

    def test_checksum_binds_shape(self) -> None:
        rows = np.arange(12.0).reshape(4, 3)
        assert payload_checksum(rows, 0, 4) != payload_checksum(
            rows.reshape(3, 4), 0, 4
        )


def test_version_skew_is_a_typed_error() -> None:
    req = encode_compute_request("ds1", 0, 0, 0, 8)
    req["version"] = PROTOCOL_VERSION + 1
    with pytest.raises(DistributedProtocolError) as excinfo:
        decode_compute_request(req)
    assert "version skew" in str(excinfo.value)


@pytest.mark.parametrize("version", [1, PROTOCOL_VERSION + 1])
def test_compute_messages_from_another_version_are_rejected(version: int) -> None:
    # A v1 peer's sorted-path blocks cover observation indices, not sorted
    # positions; folding them with this version's blocks would count some
    # observations twice and miss others, so skew must fail loudly.
    assert PROTOCOL_VERSION == 2
    req = _wire(encode_compute_request("ds1", 0, 0, 0, 4))
    req["version"] = version
    with pytest.raises(DistributedProtocolError, match="version skew"):
        decode_compute_request(req)
    resp = _wire(
        encode_compute_response(
            decode_compute_request(_wire(encode_compute_request("ds1", 0, 0, 0, 4))),
            np.ones((4, 3)),
            "w0",
        )
    )
    resp["version"] = version
    with pytest.raises(DistributedProtocolError, match="version skew"):
        decode_compute_rows(resp, k=3)
