"""CLI behaviour: exit codes, formats, rule listing, repro integration."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

BAD = "import numpy as np\na = np.empty(3)\n"
GOOD = "import numpy as np\na = np.empty(3, dtype=np.float64)\n"


@pytest.fixture()
def bad_file(tmp_path: Path) -> Path:
    target = tmp_path / "bad.py"
    target.write_text(BAD)
    return target


@pytest.fixture()
def good_file(tmp_path: Path) -> Path:
    target = tmp_path / "good.py"
    target.write_text(GOOD)
    return target


def test_exit_zero_when_clean(good_file: Path, capsys) -> None:
    assert lint_main([str(good_file)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_exit_one_on_findings(bad_file: Path, capsys) -> None:
    assert lint_main([str(bad_file)]) == 1
    out = capsys.readouterr().out
    assert "NUM004" in out
    assert f"{bad_file}:2:" in out


def test_json_format(bad_file: Path, capsys) -> None:
    assert lint_main(["--format", "json", str(bad_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 1
    assert doc["findings"][0]["rule"] == "NUM004"


def test_select_excludes_other_rules(bad_file: Path, capsys) -> None:
    assert lint_main(["--select", "NUM001", str(bad_file)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_ignore_silences_rule(bad_file: Path, capsys) -> None:
    assert lint_main(["--ignore", "NUM004", str(bad_file)]) == 0


def test_list_rules(capsys) -> None:
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("NUM001", "NUM002", "NUM003", "NUM004", "PAR001", "GPU001"):
        assert rule_id in out


def test_no_paths_errors(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        lint_main([])
    assert exc.value.code == 2


def test_unknown_rule_id_errors(bad_file: Path, capsys) -> None:
    """A typo'd --select must not silently lint with zero rules."""
    with pytest.raises(SystemExit) as exc:
        lint_main(["--select", "NUM999", str(bad_file)])
    assert exc.value.code == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_unknown_ignore_rule_errors(bad_file: Path, capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        lint_main(["--ignore", "NOPE01", str(bad_file)])
    assert exc.value.code == 2


def test_nonexistent_path_errors(tmp_path: Path, capsys) -> None:
    """A wrong path must not report a clean pass."""
    with pytest.raises(SystemExit) as exc:
        lint_main([str(tmp_path / "no_such_dir")])
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err


def test_directory_walk(tmp_path: Path, capsys) -> None:
    (tmp_path / "x.py").write_text(BAD)
    (tmp_path / "y.py").write_text(GOOD)
    assert lint_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 finding(s)" in out


def test_repro_cli_lint_subcommand(bad_file: Path, capsys) -> None:
    assert repro_main(["lint", str(bad_file)]) == 1
    assert "NUM004" in capsys.readouterr().out


def test_repro_cli_lint_list_rules(capsys) -> None:
    assert lint_main(["--list-rules"]) == 0
    direct = capsys.readouterr().out
    assert repro_main(["lint", "--list-rules"]) == 0
    assert capsys.readouterr().out == direct


@pytest.mark.parametrize(
    "entry",
    [lint_main, lambda argv: repro_main(["lint", *argv])],
    ids=["repro-lint", "repro-lint-subcommand"],
)
def test_removed_flags_are_refused_by_both_entry_points(entry, capsys) -> None:
    for flag in ("--baseline", "--update-baseline"):
        with pytest.raises(SystemExit) as exc:
            entry([flag, "x", "src"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_repro_lint_forwards_options_after_paths(bad_file: Path, capsys) -> None:
    assert repro_main(["lint", str(bad_file), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["total"] == 1


def test_other_subcommands_still_refuse_unknown_arguments(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        repro_main(["info", "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
