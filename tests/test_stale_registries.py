"""Registries that name modules, fault sites or backends hold no dead entries.

Deleting a subsystem must also delete every name it registered
elsewhere: a lint scope glob that matches no file, a fault site nothing
fires, a backend on a degradation chain that no longer resolves, or a
configuration field nothing reads all keep working silently while
describing code that is gone.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.analysis.config import LintConfig
from repro.core.backends import get_backend
from repro.resilience import faults
from repro.resilience.degrade import DEFAULT_FALLBACK_CHAIN, _CHAIN_SPURS
from repro.resilience.engine import ResilienceConfig
from repro.serving.cache import _SORTED_CAPABLE

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``faults.<name>(site, ...)`` calls that consume an event at ``site``.
_FIRING_CALLS = ("fire", "draw", "draw_many", "corrupt")


def _package_files() -> list[str]:
    return sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


def _module_globs() -> list[tuple[str, str]]:
    config = LintConfig()
    return [
        (f.name, pattern)
        for f in dataclasses.fields(config)
        if f.name.endswith("_modules")
        for pattern in getattr(config, f.name)
    ]


def _fired_sites() -> set[str]:
    sites: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "faults"
                and node.func.attr in _FIRING_CALLS
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                sites.add(node.args[0].value)
    return sites


def _chained_backends() -> list[str]:
    names = set(DEFAULT_FALLBACK_CHAIN) | set(_SORTED_CAPABLE)
    for entry, chain in _CHAIN_SPURS.items():
        names.add(entry)
        names.update(chain)
    return sorted(names)


def _read_attributes(nodes: list[ast.AST]) -> set[str]:
    return {
        node.attr
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _fields_read_outside(cls: type) -> set[str]:
    """Fields of dataclass ``cls`` that code in ``src/`` outside it reads.

    A field counts as read when an attribute of that name is loaded
    outside the class body, or inside one of its public methods that is
    itself used outside the class.  Validation in ``__post_init__`` is
    not a reader: it checks a value that nothing may ever use.
    """
    outside: list[ast.AST] = []
    methods: dict[str, ast.AST] = {}
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__
        ]
        for node in own:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    methods[item.name] = item
        if not own:
            outside.append(tree)
            continue
        for stmt in tree.body:
            if stmt not in own:
                outside.append(stmt)
    used = _read_attributes(outside)
    reached = [node for name, node in methods.items() if name in used]
    return used | _read_attributes(reached)


@pytest.mark.parametrize(
    ("cls", "field"),
    [
        (cls, f.name)
        for cls in (ResilienceConfig, LintConfig)
        for f in dataclasses.fields(cls)
    ],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_every_resilience_setting_is_read(cls, field):
    assert field in _fields_read_outside(cls), (
        f"{cls.__name__}.{field} is set but nothing in src/ outside the "
        "class reads it"
    )


@pytest.mark.parametrize(("field", "pattern"), _module_globs())
def test_every_lint_module_glob_matches_a_file(field, pattern):
    config = LintConfig()
    files = _package_files()
    assert any(config.matches(rel, (pattern,)) for rel in files), (
        f"LintConfig.{field} entry {pattern!r} matches no file under src/repro"
    )


def test_every_known_fault_site_is_fired():
    unfired = set(faults.KNOWN_SITES) - _fired_sites()
    assert not unfired, f"fault sites nothing in src/ fires: {sorted(unfired)}"


@pytest.mark.parametrize("name", _chained_backends())
def test_every_chained_backend_resolves(name):
    assert callable(get_backend(name))


def test_cli_backend_choices_are_the_resolvable_backends():
    import repro.cuda_port  # noqa: F401 - registers gpusim + gpusim-tiled
    from repro.cli import BACKEND_CHOICES
    from repro.core.backends import list_backends

    assert sorted(BACKEND_CHOICES) == list_backends()


def test_bagged_parallel_backends_resolve():
    # The parallel backend that bagged subsample sweeps fan out on.
    assert callable(get_backend("blocked-shm"))


def test_benchmark_tracing_targets_resolve():
    """The benchmark harness wraps library attributes by name; each one
    it patches must still exist, and restoring must put back the originals."""
    from perfbench.tracing import Recorder, install

    from repro.core.backends import BACKEND_REGISTRY
    from repro.resilience.engine import ResilientEngine

    numpy_backend = BACKEND_REGISTRY["numpy"]
    cv_scores = ResilientEngine.__dict__["cv_scores"]
    installation = install(Recorder())
    try:
        assert BACKEND_REGISTRY["numpy"] is not numpy_backend
    finally:
        installation.restore()
    assert BACKEND_REGISTRY["numpy"] is numpy_backend
    assert ResilientEngine.__dict__["cv_scores"] is cv_scores
