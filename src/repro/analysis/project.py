"""Whole-program view: symbol table and call graph over a source tree.

PR 1's engine analyses one module at a time, which is enough for the
syntactic rule families (NUM/PAR/GPU/ROB/SRV/OBS) but not for the
contracts the fast-grid sweep and its parallel backends depend
on: *dtype flow across call boundaries* ("does ``ensure_bandwidths``
hand me float64?") needs to know what a function defined in another
module returns.  This module builds that view:

* a **symbol table** mapping qualified names —
  ``repro.utils.validation.ensure_bandwidths``,
  ``repro.parallel.shm.SharedArray.create`` — to their def nodes;
* a best-effort **call graph** (caller qname → callee qnames), resolved
  through each module's import-alias map.  Dynamic dispatch, method
  calls on inferred receivers, and higher-order uses are out of scope;
  edges exist only where the callee is a resolvable dotted name.  Cycles
  are expected (mutual recursion) and tolerated by every consumer.

The index deliberately re-uses the per-module machinery from
:mod:`repro.analysis.engine` (alias collection, parent annotation) so a
module is parsed exactly once per lint run: :class:`ProjectIndex`
caches the annotated trees and ``LintEngine.lint_paths`` hands them
back to ``lint_source``.

Unparsable files are *recorded*, not raised: the engine still emits its
``E901`` finding for them, and the index simply has no symbols from the
broken module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.dtypeflow import FunctionSummary

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectIndex", "module_name_for"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for(path: str | Path) -> str:
    """Dotted module name for a source path.

    ``.../src/repro/core/fastgrid.py`` → ``repro.core.fastgrid``;
    ``.../src/repro/core/__init__.py`` → ``repro.core``.  Paths outside
    a ``repro``/``src`` anchor fall back to the bare stem, which keeps
    fixture snippets addressable.
    """
    parts = list(PurePosixPath(Path(path).as_posix()).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("repro", "src"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[idx:] if anchor == "repro" else parts[idx + 1 :]
            if tail:
                return ".".join(tail)
    return parts[-1] if parts else str(path)


@dataclass
class FunctionInfo:
    """One function or method definition known to the project."""

    qname: str  #: e.g. ``repro.parallel.shm.SharedArray.create``
    module: str  #: dotted module name
    name: str  #: bare function name
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_method: bool = False


@dataclass
class ModuleInfo:
    """One successfully parsed module."""

    name: str
    path: str
    rel: str
    source: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """Symbol table + call graph over a set of modules.

    Build once per lint run with :meth:`build`; rules reach it through
    ``ModuleContext.project`` (``None`` for single-snippet lints, which
    every consumer must tolerate — rules degrade to local inference).
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: path → module name, for handing cached trees back to the engine.
        self.by_path: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: caller qname → callee qnames (resolvable names only).
        self.call_graph: dict[str, set[str]] = {}
        #: callee qname → caller qnames.
        self.callers: dict[str, set[str]] = {}
        #: paths that failed to parse (the engine reports E901 for them).
        self.broken: dict[str, SyntaxError] = {}
        #: dtype summaries, computed lazily by repro.analysis.dtypeflow.
        self._summaries: dict[str, "FunctionSummary"] = {}
        self._in_progress: set[str] = set()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, files: Iterable[tuple[str, str, str]]) -> "ProjectIndex":
        """Index ``(path, rel, source)`` triples.

        Parsing is tolerant: syntax errors land in :attr:`broken` and the
        rest of the project is still indexed.
        """
        from repro.analysis.engine import _annotate_parents, _collect_aliases

        index = cls()
        for path, rel, source in files:
            name = module_name_for(path)
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                index.broken[str(path)] = exc
                continue
            _annotate_parents(tree)
            info = ModuleInfo(
                name=name,
                path=str(path),
                rel=rel,
                source=source,
                tree=tree,
                aliases=_collect_aliases(tree),
            )
            index.modules[name] = info
            index.by_path[str(path)] = name
            index._index_definitions(info)
        for info in index.modules.values():
            index._index_calls(info)
        return index

    def _index_definitions(self, info: ModuleInfo) -> None:
        """Register every def/method under its qualified name."""

        def visit(body: Iterable[ast.stmt], prefix: str, in_class: bool) -> None:
            for node in body:
                if isinstance(node, _FUNC_NODES):
                    qname = f"{prefix}.{node.name}"
                    self.functions[qname] = FunctionInfo(
                        qname=qname,
                        module=info.name,
                        name=node.name,
                        node=node,
                        is_method=in_class,
                    )
                    # Nested defs are indexed for completeness but calls
                    # to them resolve only from the same module.
                    visit(node.body, qname, in_class=False)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}.{node.name}", in_class=True)

        visit(info.tree.body, info.name, in_class=False)

    def _index_calls(self, info: ModuleInfo) -> None:
        """Record caller → callee edges for resolvable callee names."""
        for fn in self.functions_in(info.name):
            callees: set[str] = set()
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self.resolve_call(info, node)
                if target is not None:
                    callees.add(target.qname)
            if callees:
                self.call_graph[fn.qname] = callees
                for callee in callees:
                    self.callers.setdefault(callee, set()).add(fn.qname)

    # -- lookups -----------------------------------------------------------

    def functions_in(self, module: str) -> Iterator[FunctionInfo]:
        """Functions defined in ``module`` (methods included)."""
        prefix = module + "."
        for qname, fn in self.functions.items():
            if qname.startswith(prefix):
                yield fn

    def resolve_name(self, info: ModuleInfo, dotted: str) -> FunctionInfo | None:
        """Resolve an alias-resolved dotted name to a known function.

        Tries, in order: the name as an absolute qname; relative imports
        anchored at the module's package; a module-local definition
        (``helper`` or ``Class.method`` used unqualified).
        """
        candidates = [dotted]
        if dotted.startswith("."):
            # ``from .validation import f`` in repro.utils.numeric →
            # ``.validation.f`` → ``repro.utils.validation.f``.
            package = info.name.rsplit(".", 1)[0] if "." in info.name else ""
            stripped = dotted.lstrip(".")
            hops = len(dotted) - len(stripped) - 1
            for _ in range(hops):
                package = package.rsplit(".", 1)[0] if "." in package else ""
            if package:
                candidates.append(f"{package}.{stripped}")
        candidates.append(f"{info.name}.{dotted}")
        for candidate in candidates:
            if candidate in self.functions:
                return self.functions[candidate]
        return None

    def resolve_call(self, info: ModuleInfo, call: ast.Call) -> FunctionInfo | None:
        """Resolve a call's target through the module's alias map."""
        dotted = _dotted_name(call.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = info.aliases.get(head, head)
        canonical = f"{resolved}.{rest}" if rest else resolved
        return self.resolve_name(info, canonical)

    # -- dtype summaries (filled by repro.analysis.dtypeflow) --------------

    def summary_for(self, qname: str) -> "FunctionSummary":
        """Dtype summary for ``qname``, computed on first use.

        Cycle-safe: while a summary is being computed, re-entrant
        requests for the same function observe the UNKNOWN summary, so
        recursive and mutually recursive call chains terminate (one
        non-widening pass — the lattice is finite and UNKNOWN is top).
        """
        from repro.analysis.dtypeflow import (
            UNKNOWN_SUMMARY,
            summarise_function,
        )

        if qname in self._summaries:
            return self._summaries[qname]
        if qname in self._in_progress:
            return UNKNOWN_SUMMARY
        fn = self.functions.get(qname)
        if fn is None:
            return UNKNOWN_SUMMARY
        self._in_progress.add(qname)
        try:
            summary = summarise_function(fn, self.modules[fn.module], self)
        finally:
            self._in_progress.discard(qname)
        self._summaries[qname] = summary
        return summary


def _dotted_name(node: ast.AST) -> str | None:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def index_sources(paths: Mapping[str, tuple[str, str]]) -> ProjectIndex:
    """Convenience: build from ``{path: (rel, source)}`` (tests use this)."""
    return ProjectIndex.build(
        (path, rel, source) for path, (rel, source) in paths.items()
    )
