"""Engine-level behaviour: path derivation, aliases, syntax errors."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.engine import derive_rel_path, iter_python_files
from repro.analysis.findings import SYNTAX_RULE_ID


class TestDeriveRelPath:
    def test_src_layout(self) -> None:
        assert (
            derive_rel_path("/root/repo/src/repro/core/fastgrid.py")
            == "core/fastgrid.py"
        )

    def test_repro_anchor_without_src(self) -> None:
        assert derive_rel_path("repro/gpusim/device.py") == "gpusim/device.py"

    def test_last_anchor_wins(self) -> None:
        assert (
            derive_rel_path("src/other/src/repro/kde/lscv.py")
            == "kde/lscv.py"
        )

    def test_outside_package_uses_filename(self) -> None:
        assert derive_rel_path("/tmp/scratch/snippet.py") == "snippet.py"


class TestAliases:
    def test_import_as(self) -> None:
        engine = LintEngine(select=["NUM004"])
        src = "import numpy as xp\na = xp.zeros(4)\n"
        findings = engine.lint_source(src)
        assert [f.rule_id for f in findings] == ["NUM004"]

    def test_from_import_as(self) -> None:
        engine = LintEngine(select=["NUM004"])
        src = "from numpy import zeros as z\na = z(4)\n"
        findings = engine.lint_source(src)
        assert [f.rule_id for f in findings] == ["NUM004"]

    def test_unimported_name_is_not_numpy(self) -> None:
        engine = LintEngine(select=["NUM004"])
        assert engine.lint_source("a = zeros(4)\n") == []


class TestSyntaxError:
    def test_unparsable_source_yields_e901(self) -> None:
        findings = LintEngine().lint_source("def broken(:\n", path="bad.py")
        assert len(findings) == 1
        assert findings[0].rule_id == SYNTAX_RULE_ID
        assert findings[0].path == "bad.py"
        assert "cannot parse" in findings[0].message

    def test_lint_paths_reports_e901_and_keeps_linting(
        self, tmp_path: Path
    ) -> None:
        """One unparsable file must not take down a tree pass: the broken
        module gets its E901 and every other module still gets its real
        findings."""
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "bad.py").write_text("import numpy as np\na = np.empty(3)\n")
        findings = LintEngine().lint_paths([tmp_path])
        by_rule = {f.rule_id: f for f in findings}
        assert set(by_rule) == {SYNTAX_RULE_ID, "NUM004"}
        assert by_rule[SYNTAX_RULE_ID].path.endswith("broken.py")
        assert by_rule["NUM004"].path.endswith("bad.py")

    def test_e901_not_suppressible(self) -> None:
        src = "# repro-lint: disable-file=all\ndef broken(:\n"
        findings = LintEngine().lint_source(src)
        assert [f.rule_id for f in findings] == [SYNTAX_RULE_ID]


class TestSelection:
    SRC = "import numpy as np\nbad = np.empty(3)\nworse = h == 0.5\n"

    def test_select_restricts_rules(self) -> None:
        findings = LintEngine(select=["NUM001"]).lint_source(self.SRC)
        assert {f.rule_id for f in findings} == {"NUM001"}

    def test_ignore_drops_rules(self) -> None:
        findings = LintEngine(ignore=["NUM004"]).lint_source(self.SRC)
        assert "NUM004" not in {f.rule_id for f in findings}

    def test_findings_sorted(self) -> None:
        findings = LintEngine().lint_source(self.SRC, path="m.py")
        assert findings == sorted(findings)


class TestIterPythonFiles:
    def test_walks_directory_skipping_pycache(self, tmp_path: Path) -> None:
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-310.py").write_text("")
        (tmp_path / "pkg" / "notes.txt").write_text("")
        files = list(iter_python_files(tmp_path))
        assert [f.name for f in files] == ["a.py"]

    def test_single_file(self, tmp_path: Path) -> None:
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert list(iter_python_files(target)) == [target]


def test_module_context_public_names() -> None:
    engine = LintEngine()
    src = '__all__ = ["a"]\ndef a():\n    pass\ndef b():\n    pass\n'
    tree = ast.parse(src)
    from repro.analysis.engine import ModuleContext, _annotate_parents

    _annotate_parents(tree)
    ctx = ModuleContext(
        path="m.py", rel="m.py", tree=tree, config=engine.config
    )
    ctx.exported = frozenset({"a"})
    assert ctx.is_public("a")
    assert not ctx.is_public("b")
