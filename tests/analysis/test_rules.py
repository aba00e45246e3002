"""Data-driven rule tests over the fixture snippets.

Each fixture declares its contract on the first line::

    # lint-fixture: rel=<package-relative-path> expect=<RULE|none>

The test lints the fixture under the declared ``rel`` (so module-scoped
rules see the path they key on) and asserts that the set of triggered
rule ids is *exactly* the expected one — a ``_bad`` fixture must fire
its intended rule and nothing else; a ``_good`` fixture must be clean.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import LintEngine

FIXTURE_DIR = Path(__file__).parent / "fixtures"

_HEADER = re.compile(
    r"#\s*lint-fixture:\s*rel=(?P<rel>\S+)\s+expect=(?P<expect>\S+)"
)


def _load_fixture(path: Path) -> tuple[str, str, set[str]]:
    source = path.read_text(encoding="utf-8")
    match = _HEADER.match(source)
    assert match, f"{path.name}: missing '# lint-fixture:' header"
    expect = match.group("expect")
    expected = set() if expect == "none" else {expect}
    return source, match.group("rel"), expected


def _fixture_paths() -> list[Path]:
    paths = sorted(FIXTURE_DIR.glob("*.py"))
    assert paths, "no fixtures found"
    return paths


@pytest.mark.parametrize(
    "fixture", _fixture_paths(), ids=lambda p: p.stem
)
def test_fixture_triggers_exactly_its_rule(fixture: Path) -> None:
    source, rel, expected = _load_fixture(fixture)
    engine = LintEngine()
    findings = engine.lint_source(source, path=str(fixture), rel=rel)
    triggered = {f.rule_id for f in findings}
    assert triggered == expected, (
        f"{fixture.name}: expected {expected or '{}'}, got "
        f"{triggered or '{}'}:\n"
        + "\n".join(f.format() for f in findings)
    )


def test_every_rule_has_a_bad_and_good_fixture() -> None:
    """The fixture set covers each registered rule both ways."""
    from repro.analysis import RULE_REGISTRY

    stems = {p.stem for p in _fixture_paths()}
    for rule_id in RULE_REGISTRY:
        slug = rule_id.lower()
        assert f"{slug}_bad" in stems, f"missing {slug}_bad fixture"
        assert f"{slug}_good" in stems, f"missing {slug}_good fixture"


def test_bad_fixtures_report_real_positions() -> None:
    """Findings point at real line/col positions inside the fixture."""
    engine = LintEngine()
    for fixture in _fixture_paths():
        source, rel, expected = _load_fixture(fixture)
        if not expected:
            continue
        n_lines = len(source.splitlines())
        for finding in engine.lint_source(source, path=str(fixture), rel=rel):
            assert 1 <= finding.line <= n_lines
            assert finding.col >= 0
            assert finding.message


class TestNum001:
    def test_int_equality_is_fine(self) -> None:
        findings = LintEngine(select=["NUM001"]).lint_source("x = n == 3\n")
        assert findings == []

    def test_negative_float_literal(self) -> None:
        findings = LintEngine(select=["NUM001"]).lint_source(
            "bad = h == -1.5\n"
        )
        assert [f.rule_id for f in findings] == ["NUM001"]

    def test_numpy_nan_constant(self) -> None:
        src = "import numpy as np\nbad = v == np.nan\n"
        findings = LintEngine(select=["NUM001"]).lint_source(src)
        assert [f.rule_id for f in findings] == ["NUM001"]

    def test_one_finding_per_comparison_chain(self) -> None:
        findings = LintEngine(select=["NUM001"]).lint_source(
            "bad = a == 0.0 == b\n"
        )
        assert len(findings) == 1


class TestNum003:
    def test_only_fires_in_hot_path_modules(self) -> None:
        src = (
            "import numpy as np\n"
            "def f(xs):\n"
            "    for x in xs:\n"
            "        buf = np.zeros(3, dtype=np.float64)\n"
        )
        engine = LintEngine(select=["NUM003"])
        hot = engine.lint_source(src, rel="core/fastgrid.py")
        cold = engine.lint_source(src, rel="bench/tables.py")
        assert [f.rule_id for f in hot] == ["NUM003"]
        assert cold == []

    def test_helper_defined_in_function_is_not_in_loop(self) -> None:
        src = (
            "import numpy as np\n"
            "def outer(n):\n"
            "    def helper():\n"
            "        return np.zeros(n, dtype=np.float64)\n"
            "    return helper()\n"
        )
        engine = LintEngine(select=["NUM003"])
        assert engine.lint_source(src, rel="core/fastgrid.py") == []

    def test_loop_inside_nested_helper_is_caught(self) -> None:
        src = (
            "import numpy as np\n"
            "def outer(chunks):\n"
            "    def helper():\n"
            "        for c in chunks:\n"
            "            tmp = np.empty(4, dtype=np.float64)\n"
            "    return helper()\n"
        )
        engine = LintEngine(select=["NUM003"])
        findings = engine.lint_source(src, rel="core/fastgrid.py")
        assert [f.rule_id for f in findings] == ["NUM003"]


class TestNum004:
    def test_positional_dtype_accepted(self) -> None:
        src = "import numpy as np\na = np.zeros(4, np.float64)\n"
        assert LintEngine(select=["NUM004"]).lint_source(src) == []

    def test_aliased_import_resolved(self) -> None:
        src = "from numpy import empty as alloc\na = alloc(4)\n"
        findings = LintEngine(select=["NUM004"]).lint_source(src)
        assert [f.rule_id for f in findings] == ["NUM004"]

    def test_unrelated_empty_not_flagged(self) -> None:
        src = "a = empty(4)\n"
        assert LintEngine(select=["NUM004"]).lint_source(src) == []


class TestGpu001:
    def test_seeded_rng_allowed(self) -> None:
        src = (
            "import numpy as np\n"
            "def k(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        engine = LintEngine(select=["GPU001"])
        assert engine.lint_source(src, rel="gpusim/kernel.py") == []

    def test_only_fires_in_device_modules(self) -> None:
        src = "import time\nt = time.perf_counter()\n"
        engine = LintEngine(select=["GPU001"])
        device = engine.lint_source(src, rel="cuda_port/host.py")
        host = engine.lint_source(src, rel="bench/runner.py")
        assert [f.rule_id for f in device] == ["GPU001"]
        assert host == []


class TestCon002:
    OPENED = (
        "from repro.parallel.pool import WorkerPool\n"
        "def f(helper):\n"
        "    pool = WorkerPool(2)\n"
        "    try:\n"
        "        pool.open()\n"
        "        return helper(pool)\n"
        "    finally:\n"
        "        {cleanup}\n"
    )

    def _rules(self, src: str) -> list[str]:
        findings = LintEngine(select=["CON002"]).lint_source(
            src, rel="core/selectors.py"
        )
        return [f.rule_id for f in findings]

    def test_an_opened_pool_passed_to_a_helper_stays_the_scopes(self) -> None:
        assert self._rules(self.OPENED.format(cleanup="pass")) == ["CON002"]
        assert self._rules(self.OPENED.format(cleanup="pool.close()")) == []

    def test_an_unopened_pool_passed_on_is_handed_off(self) -> None:
        src = (
            "from repro.parallel.pool import WorkerPool\n"
            "def f(owner):\n"
            "    pool = WorkerPool(2)\n"
            "    owner.adopt(pool)\n"
        )
        assert self._rules(src) == []


class TestRob001:
    def test_bare_except_flagged(self) -> None:
        src = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        return None\n"
        )
        findings = LintEngine(select=["ROB001"]).lint_source(
            src, rel="bench/tables.py"
        )
        assert [f.rule_id for f in findings] == ["ROB001"]

    def test_broad_tuple_flagged(self) -> None:
        src = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, Exception):\n"
            "        return None\n"
        )
        findings = LintEngine(select=["ROB001"]).lint_source(
            src, rel="bench/tables.py"
        )
        assert [f.rule_id for f in findings] == ["ROB001"]

    def test_reraise_is_allowed(self) -> None:
        src = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        raise RuntimeError('wrapped') from exc\n"
        )
        engine = LintEngine(select=["ROB001"])
        assert engine.lint_source(src, rel="bench/tables.py") == []

    def test_raise_inside_nested_def_does_not_count(self) -> None:
        src = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        def fail():\n"
            "            raise RuntimeError('never called')\n"
            "        return fail\n"
        )
        findings = LintEngine(select=["ROB001"]).lint_source(
            src, rel="bench/tables.py"
        )
        assert [f.rule_id for f in findings] == ["ROB001"]

    def test_resilience_layer_is_exempt(self) -> None:
        src = (
            "def absorb():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        engine = LintEngine(select=["ROB001"])
        assert engine.lint_source(src, rel="resilience/engine.py") == []

    def test_narrow_handler_is_fine(self) -> None:
        src = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        return None\n"
        )
        engine = LintEngine(select=["ROB001"])
        assert engine.lint_source(src, rel="bench/tables.py") == []


def _bad_fixture_paths() -> list[Path]:
    return [p for p in _fixture_paths() if p.stem.endswith("_bad")]


@pytest.mark.parametrize("scope", ["line", "file"])
@pytest.mark.parametrize(
    "fixture", _bad_fixture_paths(), ids=lambda p: p.stem
)
def test_bad_fixture_is_silenced_by_its_suppression(
    fixture: Path, scope: str
) -> None:
    """Each rule's findings honour both suppression forms: a
    ``disable=RULE`` comment on every reported line, or a single
    ``disable-file=RULE`` comment, leaves the bad fixture clean."""
    source, rel, expected = _load_fixture(fixture)
    (rule_id,) = expected
    engine = LintEngine()
    findings = engine.lint_source(source, path=str(fixture), rel=rel)
    assert findings, f"{fixture.name}: nothing to suppress"
    if scope == "line":
        lines = source.splitlines()
        for lineno in {f.line for f in findings}:
            lines[lineno - 1] += f"  # repro-lint: disable={rule_id}"
        silenced = "\n".join(lines) + "\n"
    else:
        silenced = source + f"# repro-lint: disable-file={rule_id}\n"
    assert engine.lint_source(silenced, path=str(fixture), rel=rel) == []
