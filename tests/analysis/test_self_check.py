"""Self-check: the analysis package (and the whole source tree) is clean.

This is the dogfooding gate: ``repro-lint src/`` must exit 0, so the
suite fails the moment a change to ``src/`` introduces a violation
without either fixing it or justifying a suppression.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis import RULE_REGISTRY, LintEngine, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_all_rule_families_registered() -> None:
    assert set(RULE_REGISTRY) == {
        "CON001",
        "CON002",
        "DET001",
        "DET003",
        "GPU001",
        "NUM001",
        "NUM002",
        "NUM003",
        "NUM004",
        "OBS001",
        "PAR001",
        "ROB001",
        "SRV001",
    }


def test_readme_rule_table_lists_exactly_the_registry() -> None:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Static analysis", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| ([A-Z]{3}\d{3}) \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(RULE_REGISTRY)


def test_analysis_package_lints_clean() -> None:
    findings = LintEngine().lint_paths([SRC / "repro" / "analysis"])
    assert findings == [], "\n" + render_text(findings)


def test_whole_source_tree_lints_clean() -> None:
    findings = LintEngine().lint_paths([SRC])
    assert findings == [], "\n" + render_text(findings)


def test_cli_exits_zero_on_src(capsys) -> None:
    from repro.analysis.cli import main

    assert main([str(SRC)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_full_pass_stays_inside_runtime_budget() -> None:
    """The lint must stay usable as a pre-commit hook: one full pass
    over src/ in well under 30 s."""
    import time

    start = time.perf_counter()
    LintEngine().lint_paths([SRC])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"lint of src/ took {elapsed:.1f}s (budget: 30s)"
