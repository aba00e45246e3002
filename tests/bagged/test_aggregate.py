"""Log-space aggregation of per-subsample bandwidths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bagged.aggregate import SubsampleOutcome, aggregate_bandwidths
from repro.exceptions import ValidationError


class TestAggregateBandwidths:
    def test_mean_log_is_geometric_mean(self) -> None:
        values = [0.1, 0.4]
        assert aggregate_bandwidths(values) == pytest.approx(0.2)

    def test_constant_input_is_identity(self) -> None:
        # Unanimous votes pass through exactly, with no exp/log round-trip.
        assert aggregate_bandwidths([0.37] * 5) == 0.37

    def test_permutation_invariant(self) -> None:
        values = np.array([0.11, 0.31, 0.21, 0.17])
        shuffled = values[[2, 0, 3, 1]]
        assert aggregate_bandwidths(values) == aggregate_bandwidths(shuffled)

    @pytest.mark.parametrize(
        "values", [[], [[0.1, 0.2]], [0.0, 0.1], [-0.1], [float("nan")]]
    )
    def test_degenerate_inputs_rejected(self, values) -> None:
        with pytest.raises(ValidationError):
            aggregate_bandwidths(values)


class TestSubsampleOutcome:
    def test_diagnostics_record_is_json_ready(self) -> None:
        import json

        outcome = SubsampleOutcome(
            index=3,
            argmin=7,
            bandwidth=0.04,
            rescaled_bandwidth=0.02,
            score=0.5,
            attempts=2,
            bandwidths=np.array([0.03, 0.04]),
            scores=np.array([0.6, 0.5]),
        )
        record = outcome.to_diagnostics()
        json.dumps(record)  # must not raise
        assert record["index"] == 3
        assert record["attempts"] == 2
        assert record["curve"]["scores"] == [0.6, 0.5]
