"""Unit tests for fault classification, the fallback chain, and the report."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DataCorruptionError,
    DeviceMemoryError,
    KernelExecutionError,
    PoolStateError,
    SharedSegmentError,
    ValidationError,
    WorkerCrashError,
)
from repro.resilience.degrade import (
    DEFAULT_FALLBACK_CHAIN,
    ResilienceReport,
    fallback_chain,
    is_degradable,
    is_retryable,
)
from repro.resilience.policy import RetryBudgetExceeded


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            WorkerCrashError("worker 3 died"),
            KernelExecutionError("launch failed"),
            DataCorruptionError("nan in block"),
        ],
    )
    def test_transients_are_retryable_not_degradable(self, exc) -> None:
        assert is_retryable(exc)
        assert not is_degradable(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            DeviceMemoryError("4 GB wall"),
            PoolStateError("pool retired"),
            SharedSegmentError("segment unlinked under the pool"),
            RetryBudgetExceeded("gave up"),
        ],
    )
    def test_structural_faults_degrade(self, exc) -> None:
        assert is_degradable(exc)
        assert not is_retryable(exc)

    def test_caller_bugs_do_neither(self) -> None:
        exc = ValidationError("x and y length mismatch")
        assert not is_retryable(exc)
        assert not is_degradable(exc)
        plain = RuntimeError("unclassified")
        assert not is_retryable(plain)
        assert not is_degradable(plain)


class TestFallbackChain:
    def test_full_chain_from_gpusim(self) -> None:
        assert fallback_chain("gpusim") == DEFAULT_FALLBACK_CHAIN

    def test_suffix_from_mid_chain(self) -> None:
        assert fallback_chain("gpusim-tiled") == ("gpusim-tiled", "numpy")

    def test_terminal_backend_has_no_fallback(self) -> None:
        assert fallback_chain("numpy") == ("numpy",)

    def test_blocked_shm_joins_at_blocked(self) -> None:
        # The shm spur degrades straight to its bit-identical serial twin,
        # the blocked numpy sweep; so does the fleet.
        assert fallback_chain("blocked-shm") == ("blocked-shm", "numpy")
        assert fallback_chain("distributed") == ("distributed", "numpy")

    def test_unknown_backend_falls_to_serial(self) -> None:
        assert fallback_chain("python") == ("python", "numpy")
        assert fallback_chain("my-custom") == ("my-custom", "numpy")


class TestReport:
    def test_clean_until_something_happens(self) -> None:
        rep = ResilienceReport(backend_requested="numpy", backend_used="numpy")
        assert rep.clean
        assert not rep.degraded
        rep.retries += 1
        assert not rep.clean

    def test_degraded_flag(self) -> None:
        rep = ResilienceReport(backend_requested="gpusim", backend_used="numpy")
        assert rep.degraded
        assert not rep.clean

    def test_record_fault_uses_stable_code(self) -> None:
        rep = ResilienceReport()
        rep.record_fault("block:0", DeviceMemoryError("oom"))
        rep.record_fault("scores", RuntimeError("untyped"))
        assert rep.faults[0]["code"] == "REPRO_DEVICE_OOM"
        assert rep.faults[1]["code"] == "RuntimeError"

    def test_to_dict_copies_mutable_fields(self) -> None:
        rep = ResilienceReport(backend_requested="gpusim")
        rep.record_attempt("gpusim", "REPRO_DEVICE_OOM")
        snap = rep.to_dict()
        snap["backend_attempts"].clear()
        assert rep.backend_attempts, "to_dict must return copies"

    def test_summary_mentions_degradation_and_attempts(self) -> None:
        rep = ResilienceReport(
            backend_requested="gpusim", backend_used="gpusim-tiled"
        )
        rep.record_attempt("gpusim", "REPRO_DEVICE_OOM")
        rep.record_attempt("gpusim-tiled", "ok")
        text = rep.summary()
        assert "degraded" in text
        assert "gpusim=REPRO_DEVICE_OOM" in text
        assert "gpusim-tiled=ok" in text
