"""Project-aware static analysis (``repro-lint``).

An AST-based lint framework tuned to the failure modes of this
reproduction: numerical-correctness hazards (exact float equality around
the CV argmin, implicit dtypes that break the float32/float64 ablation),
hot-path hygiene (allocations and tracing inside the O(n²) sweep loops),
determinism (unordered input to the strict folds, unseeded RNG),
concurrency lifecycles (shared-memory segments, worker pools) and
parallel/device/serving safety.

Every rule is a pure function of one parsed module: the engine lints a
tree one file at a time.  Each rule guards a named subject in ``src/``
(``tests/analysis/test_subjects.py`` mutates that subject and checks the
rule fires).

Public surface:

* :class:`~repro.analysis.engine.LintEngine` — parse + rule dispatch
* :class:`~repro.analysis.config.LintConfig` — project layout knobs
* :class:`~repro.analysis.findings.Finding` — one diagnostic
* :func:`~repro.analysis.sarif.render_sarif` — SARIF 2.1.0 export
* :func:`~repro.analysis.rules.default_rules` / ``RULE_REGISTRY``
* :mod:`repro.analysis.cli` — the ``repro-lint`` console script

Suppress a finding in source with a trailing comment::

    den != 0.0  # repro-lint: disable=NUM001

or for a whole file with ``# repro-lint: disable-file=RULE`` on any line.
"""

from __future__ import annotations

from repro.analysis.config import LintConfig
from repro.analysis.engine import LintEngine, ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import RULE_REGISTRY, Rule, default_rules
from repro.analysis.sarif import render_sarif

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "ModuleContext",
    "RULE_REGISTRY",
    "Rule",
    "default_rules",
    "render_json",
    "render_sarif",
    "render_text",
]
