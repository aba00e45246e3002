"""SARIF export: schema validity and golden snapshot.

The schema check runs against a vendored, trimmed copy of the official
SARIF 2.1.0 schema (``data/sarif-schema-2.1.0-trimmed.json``) — a
faithful subset covering exactly the properties we emit, made *stricter*
(``additionalProperties: false``) so misspelled keys fail instead of
validating vacuously.  No network access is needed.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

from repro.analysis.findings import SYNTAX_RULE_ID, Finding
from repro.analysis.rules import RULE_REGISTRY
from repro.analysis.sarif import render_sarif, sarif_document

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads((DATA / "sarif-schema-2.1.0-trimmed.json").read_text())
GOLDEN = DATA / "golden.sarif"

#: Fixed findings (relative paths → cwd-independent normalisation).
FINDINGS = [
    Finding(
        path="src/repro/core/example.py",
        line=12,
        col=4,
        rule_id="NUM004",
        message="allocation without an explicit dtype",
    ),
    Finding(
        path="src/repro/core/example.py",
        line=30,
        col=8,
        rule_id="CON002",
        message="WorkerPool without a with/try-finally lifecycle",
    ),
]


def validate(doc: dict) -> None:
    jsonschema.validate(doc, SCHEMA)


def test_empty_report_is_schema_valid() -> None:
    validate(sarif_document([]))


def test_findings_report_is_schema_valid() -> None:
    validate(sarif_document(FINDINGS))


def test_golden_snapshot() -> None:
    rendered = render_sarif(FINDINGS)
    assert rendered == GOLDEN.read_text(encoding="utf-8"), (
        "SARIF output drifted from the golden file; if the change is "
        "intentional, regenerate tests/analysis/data/golden.sarif"
    )


def test_golden_file_itself_is_schema_valid() -> None:
    validate(json.loads(GOLDEN.read_text(encoding="utf-8")))


def test_rule_catalogue_covers_registry() -> None:
    doc = sarif_document(FINDINGS)
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    ids = [rule["id"] for rule in rules]
    assert ids == sorted(RULE_REGISTRY)
    for rule in rules:
        assert rule["shortDescription"]["text"]
        assert rule["fullDescription"]["text"]


def test_rule_index_points_at_the_right_rule() -> None:
    doc = sarif_document(FINDINGS)
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    for result in doc["runs"][0]["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_columns_are_one_based() -> None:
    doc = sarif_document(FINDINGS)
    regions = [
        res["locations"][0]["physicalLocation"]["region"]
        for res in doc["runs"][0]["results"]
    ]
    assert [r["startColumn"] for r in regions] == [5, 9]  # cols 4, 8
    assert [r["startLine"] for r in regions] == [12, 30]


def test_syntax_pseudo_rule_declared_when_present() -> None:
    e901 = Finding(
        path="src/repro/bad.py",
        line=1,
        col=0,
        rule_id=SYNTAX_RULE_ID,
        message="syntax error",
    )
    doc = sarif_document([e901])
    validate(doc)
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert rules[-1]["id"] == SYNTAX_RULE_ID
    result = doc["runs"][0]["results"][0]
    assert rules[result["ruleIndex"]]["id"] == SYNTAX_RULE_ID


def test_uris_are_posix_relative_with_base_id() -> None:
    doc = sarif_document(FINDINGS)
    loc = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/core/example.py"
    assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"


def test_render_is_newline_terminated_json() -> None:
    rendered = render_sarif(FINDINGS)
    assert rendered.endswith("\n")
    assert json.loads(rendered)["version"] == "2.1.0"


@pytest.mark.parametrize(
    "mutation",
    [
        {"version": "3.0.0"},
        {"runs": []},
        {"extra": True},
    ],
)
def test_trimmed_schema_actually_rejects(mutation: dict) -> None:
    """Guard the guard: the vendored schema must not validate everything."""
    doc = sarif_document(FINDINGS)
    doc.update(mutation)
    with pytest.raises(jsonschema.ValidationError):
        validate(doc)
