"""SARIF 2.1.0 export for repro-lint findings.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what code-scanning UIs ingest — the CI ``lint`` job uploads
this file so findings annotate the PR diff instead of living in a build
log.  Only the small subset of the format we need is emitted: one run, the
tool's rule catalogue (id + short/full description), and one ``result``
per finding with a physical location.

The golden-file test validates this output against a vendored, trimmed
copy of the official 2.1.0 schema, so the emitted shape is pinned by
more than convention.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.findings import SYNTAX_RULE_ID, Finding
from repro.analysis.rules import RULE_REGISTRY

__all__ = ["render_sarif", "sarif_document"]

_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: The unparsable-file pseudo-rule is not in the registry but must still
#: be a declared rule for ``ruleIndex`` to resolve.
_SYNTAX_RULE_DESCRIPTION = (
    "File could not be parsed as Python; no other rule ran on it."
)


def _normalise(path: str) -> str:
    """Repo-portable URI: posix separators, relative to cwd when under it."""
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return p.as_posix()


def _rule_catalogue(extra_ids: Iterable[str]) -> list[dict[str, Any]]:
    """The ``tool.driver.rules`` array: every registered rule, sorted,
    plus any pseudo-rules that actually occur in the findings."""
    rules: list[dict[str, Any]] = []
    for rule_id in sorted(RULE_REGISTRY):
        cls = RULE_REGISTRY[rule_id]
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": cls.summary},
                "fullDescription": {"text": cls.rationale},
                "defaultConfiguration": {"level": "error"},
            }
        )
    if SYNTAX_RULE_ID in set(extra_ids):
        rules.append(
            {
                "id": SYNTAX_RULE_ID,
                "shortDescription": {"text": "unparsable file"},
                "fullDescription": {"text": _SYNTAX_RULE_DESCRIPTION},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return rules


def sarif_document(findings: Sequence[Finding]) -> dict[str, Any]:
    """The SARIF log as a plain dict (``render_sarif`` serialises it)."""
    rules = _rule_catalogue({f.rule_id for f in findings})
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = [
        {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index[finding.rule_id],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _normalise(finding.path),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            # SARIF columns are 1-based; ours are 0-based.
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "$schema": _SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    """Serialised SARIF log, newline-terminated."""
    return json.dumps(sarif_document(findings), indent=2, ensure_ascii=False) + "\n"
