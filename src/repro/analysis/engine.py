"""The lint engine: parse, annotate, dispatch rules, filter suppressions.

One :class:`ModuleContext` is built per file.  It carries everything the
rules need so each rule can stay a pure function of the context:

* the parsed tree with parent back-links (``parent_of``/``ancestors``),
* an import-alias map so calls can be matched by *canonical* dotted name
  (``np.zeros`` and ``from numpy import zeros as z; z(...)`` both
  resolve to ``numpy.zeros``),
* the package-relative path used by module-scoped rules,
* the set of function names defined *nested* inside other functions
  (closures — the PAR001 picklability hazard),
* the module's declared ``__all__``, when it is a literal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator

from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.findings import SYNTAX_RULE_ID, Finding
from repro.analysis.suppressions import SuppressionIndex

__all__ = ["LintEngine", "ModuleContext", "iter_python_files"]

_PARENT = "_repro_lint_parent"

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _annotate_parents(tree: ast.Module) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT, node)


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical dotted origins from import statements."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".", 1)[0]
                target = item.name if item.asname else item.name.split(".", 1)[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            prefix = ("." * node.level) + (node.module or "")
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{prefix}.{item.name}" if prefix else item.name
    return aliases


def _collect_nested_functions(tree: ast.Module) -> frozenset[str]:
    nested: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, _FUNC_NODES):
            for anc in _iter_ancestors(node):
                if isinstance(anc, _FUNC_NODES):
                    nested.add(node.name)
                    break
    return frozenset(nested)


def _collect_exported(tree: ast.Module) -> frozenset[str] | None:
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            names = [
                el.value
                for el in node.value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
            return frozenset(names)
    return None


def _iter_ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current = getattr(node, _PARENT, None)
    while current is not None:
        yield current
        current = getattr(current, _PARENT, None)


def derive_rel_path(path: str | Path) -> str:
    """Package-relative posix path for module-scoped pattern matching.

    ``.../src/repro/core/fastgrid.py`` → ``core/fastgrid.py``; for paths
    outside the package the bare filename is used.
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    for anchor in ("repro", "src"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[idx + 1 :]
            if tail:
                return "/".join(tail)
    return parts[-1] if parts else str(path)


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: str
    rel: str
    tree: ast.Module
    config: LintConfig
    aliases: dict[str, str] = field(default_factory=dict)
    nested_functions: frozenset[str] = frozenset()
    exported: frozenset[str] | None = None

    # -- classification ----------------------------------------------------

    def in_modules(self, patterns: tuple[str, ...]) -> bool:
        """Whether this module matches one of the config glob patterns."""
        return self.config.matches(self.rel, patterns)

    # -- name resolution ---------------------------------------------------

    def dotted_name(self, node: ast.AST) -> str | None:
        """Raw dotted name of a Name/Attribute chain (``np.random.rand``)."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            return ".".join(reversed(parts))
        return None

    def canonical_name(self, node: ast.AST) -> str | None:
        """Alias-resolved dotted name, or None for non-name expressions."""
        raw = self.dotted_name(node)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        resolved = self.aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved

    def call_name(self, call: ast.Call) -> str | None:
        """Canonical name of the called object, when it has one."""
        return self.canonical_name(call.func)

    # -- tree navigation ---------------------------------------------------

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent (None for the module node)."""
        return getattr(node, _PARENT, None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk parents from ``node`` up to the module."""
        return _iter_ancestors(node)

    def enclosing_loop(self, node: ast.AST) -> ast.AST | None:
        """The nearest For/While ancestor within the same function body.

        The walk stops at function boundaries that are themselves outside
        a loop, so a helper *defined* at function scope is not "in a
        loop", while code inside a loop of that helper is.
        """
        for anc in _iter_ancestors(node):
            if isinstance(anc, _LOOP_NODES):
                return anc
            if isinstance(anc, _FUNC_NODES):
                return None
        return None

    def is_public(self, name: str) -> bool:
        """Public = exported via ``__all__`` (or no underscore prefix)."""
        if self.exported is not None:
            return name in self.exported
        return not name.startswith("_")


class LintEngine:
    """Parses modules and runs the registered rules over them."""

    def __init__(
        self,
        *,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
    ):
        from repro.analysis.rules import default_rules

        self.config = DEFAULT_CONFIG
        selected = set(select) if select is not None else None
        ignored = set(ignore or ())
        self.rules = [
            rule
            for rule in default_rules()
            if (selected is None or rule.rule_id in selected)
            and rule.rule_id not in ignored
        ]

    # -- single module -----------------------------------------------------

    def lint_source(
        self, source: str, path: str = "<string>", rel: str | None = None
    ) -> list[Finding]:
        """Lint one module given as a string; ``rel`` overrides the
        package-relative path used for module-scoped rules."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id=SYNTAX_RULE_ID,
                    message=f"cannot parse file: {exc.msg}",
                )
            ]
        _annotate_parents(tree)
        ctx = ModuleContext(
            path=path,
            rel=rel if rel is not None else derive_rel_path(path),
            tree=tree,
            config=self.config,
            aliases=_collect_aliases(tree),
            nested_functions=_collect_nested_functions(tree),
            exported=_collect_exported(tree),
        )
        findings: list[Finding] = []
        for rule in self.rules:
            if rule.applies_to(ctx):
                findings.extend(rule.check(ctx))
        suppressions = SuppressionIndex.from_source(source)
        return sorted(f for f in findings if not suppressions.is_suppressed(f))

    def lint_file(self, path: str | Path) -> list[Finding]:
        """Lint one file on disk."""
        text = Path(path).read_text(encoding="utf-8")
        return self.lint_source(text, path=str(path))

    # -- trees -------------------------------------------------------------

    def lint_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Lint files and/or directory trees, one module at a time;
        directories are walked for ``*.py`` files (sorted, deterministic
        order)."""
        findings: list[Finding] = []
        for path in paths:
            for file_path in iter_python_files(path):
                try:
                    findings.extend(self.lint_file(file_path))
                except OSError:
                    continue
        return sorted(findings)


def iter_python_files(path: str | Path) -> Iterator[Path]:
    """Yield ``path`` itself (if a .py file) or every .py file under it."""
    p = Path(path)
    if p.is_dir():
        yield from sorted(
            f for f in p.rglob("*.py") if "__pycache__" not in f.parts
        )
    elif p.suffix == ".py" or p.is_file():
        yield p
