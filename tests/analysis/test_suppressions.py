"""Suppression-comment handling."""

from __future__ import annotations

from repro.analysis import LintEngine
from repro.analysis.suppressions import SuppressionIndex

HOT = "core/fastgrid.py"


def test_line_suppression_silences_that_line_only() -> None:
    src = (
        "import numpy as np\n"
        "a = np.empty(3)  # repro-lint: disable=NUM004\n"
        "b = np.empty(3)\n"
    )
    findings = LintEngine(select=["NUM004"]).lint_source(src)
    assert [f.line for f in findings] == [3]


def test_line_suppression_is_rule_specific() -> None:
    src = (
        "import numpy as np\n"
        "a = np.empty(3)  # repro-lint: disable=NUM001\n"
    )
    findings = LintEngine(select=["NUM004"]).lint_source(src)
    assert [f.rule_id for f in findings] == ["NUM004"]


def test_file_wide_suppression() -> None:
    src = (
        "# repro-lint: disable-file=NUM004\n"
        "import numpy as np\n"
        "a = np.empty(3)\n"
        "b = np.zeros(3)\n"
    )
    assert LintEngine(select=["NUM004"]).lint_source(src) == []


def test_disable_all_on_line() -> None:
    src = (
        "import numpy as np\n"
        "a = np.empty(3); bad = h == 0.5  # repro-lint: disable=all\n"
    )
    assert LintEngine().lint_source(src) == []


def test_multiple_rules_one_comment() -> None:
    src = (
        "import numpy as np\n"
        "def f(xs):\n"
        "    for x in xs:\n"
        "        a = np.empty(3)  # repro-lint: disable=NUM003,NUM004\n"
    )
    assert LintEngine().lint_source(src, rel=HOT) == []


def test_trailing_prose_after_rule_list_is_fine() -> None:
    src = (
        "import time\n"
        "t = time.perf_counter()  # repro-lint: disable=GPU001 - wall clock\n"
    )
    assert LintEngine(select=["GPU001"]).lint_source(src, rel="gpusim/k.py") == []


def test_index_parsing() -> None:
    src = (
        "# repro-lint: disable-file=NUM003\n"
        "x = 1  # repro-lint: disable=NUM001, PAR001\n"
    )
    index = SuppressionIndex.from_source(src)
    assert index.file_wide == {"NUM003"}
    assert index.by_line == {2: {"NUM001", "PAR001"}}


MIXED = (
    "import numpy as np\n"
    "def f(values):\n"
    "    a = np.empty(3){num_sup}\n"
    "    return a, np.random.default_rng(){det_sup}\n"
)


def _mixed(num_sup: str = "", det_sup: str = "") -> str:
    return MIXED.format(num_sup=num_sup, det_sup=det_sup)


def test_two_families_fire_side_by_side() -> None:
    findings = LintEngine(select=["NUM004", "DET003"]).lint_source(
        _mixed(), rel="core/mixed.py"
    )
    assert [f.rule_id for f in findings] == ["NUM004", "DET003"]


def test_suppressing_one_family_keeps_the_other() -> None:
    findings = LintEngine(select=["NUM004", "DET003"]).lint_source(
        _mixed(det_sup="  # repro-lint: disable=DET003 - test fixture"),
        rel="core/mixed.py",
    )
    assert [f.rule_id for f in findings] == ["NUM004"]


def test_suppressing_the_other_family_keeps_the_first() -> None:
    findings = LintEngine(select=["NUM004", "DET003"]).lint_source(
        _mixed(num_sup="  # repro-lint: disable=NUM004"),
        rel="core/mixed.py",
    )
    assert [f.rule_id for f in findings] == ["DET003"]


def test_file_wide_disable_of_one_family_only() -> None:
    src = "# repro-lint: disable-file=DET003\n" + _mixed()
    findings = LintEngine(select=["NUM004", "DET003"]).lint_source(
        src, rel="core/mixed.py"
    )
    assert [f.rule_id for f in findings] == ["NUM004"]


def test_one_comment_spanning_both_families() -> None:
    src = (
        "import numpy as np\n"
        "def f():\n"
        "    return np.empty(3), np.random.default_rng()"
        "  # repro-lint: disable=NUM004,DET003\n"
    )
    assert (
        LintEngine(select=["NUM004", "DET003"]).lint_source(
            src, rel="core/mixed.py"
        )
        == []
    )


def test_concurrency_rule_suppression() -> None:
    src = (
        "from repro.parallel.pool import WorkerPool\n"
        "def run():\n"
        "    pool = WorkerPool(2)  # repro-lint: disable=CON002 - caller owns\n"
        "    pool.map(len, [])\n"
    )
    assert (
        LintEngine(select=["CON002"]).lint_source(src, rel="parallel/use.py")
        == []
    )
