"""Unit tests for parsing and resolving a sweep's memory budget."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.utils.membudget import (
    MEMORY_BUDGET_ENV,
    parse_byte_budget,
    requested_budget,
)


class TestParseByteBudget:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            (4096, 4096),
            (4096.9, 4096),  # fractional bytes truncate
            ("123", 123),
            ("2GB", 2 * 1024**3),
            ("2GiB", 2 * 1024**3),
            ("512MiB", 512 * 1024**2),
            ("64mb", 64 * 1024**2),
            ("1.5kb", 1536),
            (" 8 KiB ", 8192),
            ("3tb", 3 * 1024**4),
        ],
    )
    def test_accepted_spellings(self, raw, expected) -> None:
        assert parse_byte_budget(raw) == expected

    def test_bare_gb_is_binary(self) -> None:
        # "2GB" means 2 GiB here: a decimal reading would silently
        # under-provision the plan by 7%.
        assert parse_byte_budget("2GB") == parse_byte_budget("2GiB")

    @pytest.mark.parametrize("raw", ["", "GB", "2 light-years", "1e9", "-2GB"])
    def test_unparseable_strings_are_typed_errors(self, raw) -> None:
        with pytest.raises(ValidationError):
            parse_byte_budget(raw)

    @pytest.mark.parametrize("raw", [0, -1, 0.2, "0", "0.0001b"])
    def test_nonpositive_budgets_rejected(self, raw) -> None:
        with pytest.raises(ValidationError, match="positive"):
            parse_byte_budget(raw)

    def test_bool_is_not_a_byte_count(self) -> None:
        # bool subclasses int; accepting True as "1 byte" would hide a
        # caller bug forever.
        with pytest.raises(ValidationError):
            parse_byte_budget(True)

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("1.5GiB", int(1.5 * 1024**3)),
            ("1.5GB", int(1.5 * 1024**3)),  # bare GB is binary too
            ("0.5tb", 1024**4 // 2),
            ("2.75MiB", int(2.75 * 1024**2)),
            ("1.5gIb", int(1.5 * 1024**3)),  # unit case-insensitive
            ("2.9b", 2),  # fractional bytes truncate toward zero
        ],
    )
    def test_fractional_binary_units(self, raw, expected) -> None:
        assert parse_byte_budget(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        [
            "1.5.5GB",   # two decimal points
            "GB2",       # unit before the number
            "two GB",    # spelled-out magnitude
            "1,000",     # thousands separator
            "1_000",     # underscore separator (int() would take it)
            "+2GB",      # explicit sign
            "2 giga",    # unknown unit
            "0x400",     # hex
            "nan",
            "infGiB",
        ],
    )
    def test_more_unparseable_spellings(self, raw) -> None:
        with pytest.raises(ValidationError) as info:
            parse_byte_budget(raw)
        # Typed, self-describing error — not a bare ValueError from int().
        assert info.value.code == "REPRO_VALIDATION"
        assert repr(raw) in str(info.value)


class TestResolveBudget:
    def test_explicit_beats_environment(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "64MiB")
        assert requested_budget("2GiB") == 2 * 1024**3

    def test_environment_beats_default(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "64MiB")
        assert requested_budget() == 64 * 1024**2

    def test_default_when_nothing_set(self, monkeypatch) -> None:
        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        assert requested_budget() is None  # unbudgeted

    def test_blank_environment_is_ignored(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "   ")
        assert requested_budget() is None

    def test_bad_environment_value_is_loud(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "lots")
        with pytest.raises(ValidationError):
            requested_budget()

    def test_explicit_budget_never_consults_environment(self, monkeypatch) -> None:
        # A broken env var must not poison calls that pass their own
        # budget: the argument short-circuits before the env is read.
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "not-a-budget")
        assert requested_budget("64MiB") == 64 * 1024**2

    def test_invalid_explicit_budget_raises_despite_valid_env(
        self, monkeypatch
    ) -> None:
        # Precedence is strict: an invalid argument is the caller's bug
        # and must not silently fall back to the (valid) environment.
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "64MiB")
        with pytest.raises(ValidationError):
            requested_budget("lots")

    def test_fractional_env_budget(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1.5GiB")
        assert requested_budget() == int(1.5 * 1024**3)

    def test_tab_newline_environment_is_ignored(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "\t\n")
        assert requested_budget() is None
