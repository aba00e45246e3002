"""Intraprocedural dtype propagation over a four-point lattice.

The float32 fast path and the parallel row fold both rest on one
invariant: *a value's precision is chosen
once, at a named seed, and never drifts silently*.  This module gives
the DTY rules the machinery to check that statically:

* a **lattice** of abstract dtypes — ``FLOAT32``, ``FLOAT64``, ``INT``,
  ``UNKNOWN`` (top).  There is no bottom in practice: everything starts
  unknown and only seeds refine it.
* **seeds**: literal dtypes on ``np.asarray``/``np.zeros``/…,
  ``.astype(...)`` casts, float/int literals, and numpy's documented
  float64 defaults.
* **propagation** through assignments, arithmetic (with numpy's
  promotion rules: float64 wins, int promotes to float), subscripts,
  dtype-preserving methods (``reshape``/``ravel``/``copy``/…), and —
  the whole-program part — *calls*, via per-function summaries computed
  on demand from the :class:`~repro.analysis.project.ProjectIndex`.

Summaries are deliberately simple: a function's return dtype is either
a lattice value or *follows a dtype parameter* (``as_float_array``
returns whatever ``dtype=`` names, defaulting to float64).  That is
enough to type the validation funnel the whole numerics stack leans on
(``ensure_bandwidths`` → ``as_float_array`` → ``np.asarray(dtype=…)``),
which is exactly the chain the redundant-cast rule needs to see through.

Every conclusion errs toward ``UNKNOWN``: the DTY rules only fire on
*certain* knowledge, so over-approximation produces silence, never
false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.project import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = [
    "DType",
    "DtypeEvent",
    "FunctionSummary",
    "UNKNOWN_SUMMARY",
    "analyse_function",
    "analyse_module",
    "dtype_from_spec",
    "summarise_function",
]


class DType(Enum):
    """Abstract element dtype of an expression."""

    FLOAT32 = "float32"
    FLOAT64 = "float64"
    INT = "int"
    UNKNOWN = "unknown"

    def is_float(self) -> bool:
        return self in (DType.FLOAT32, DType.FLOAT64)


def join(a: DType, b: DType) -> DType:
    """Lattice join: agreement stays, disagreement widens to UNKNOWN."""
    return a if a is b else DType.UNKNOWN


def promote(a: DType, b: DType) -> DType:
    """Numpy arithmetic promotion (not the lattice join).

    float64 beats float32 beats int; any UNKNOWN operand poisons the
    result.  Mixing the two float widths is legal numpy — that is what
    makes it a *silent* hazard, and why the mix itself is reported as an
    event rather than an inference failure.
    """
    if a is DType.UNKNOWN or b is DType.UNKNOWN:
        return DType.UNKNOWN
    if DType.FLOAT64 in (a, b):
        return DType.FLOAT64
    if DType.FLOAT32 in (a, b):
        return DType.FLOAT32
    return DType.INT


@dataclass(frozen=True)
class DtypeEvent:
    """One dtype-flow fact a DTY rule may report.

    kind:
        ``narrow``    — a certain float64 value cast to float32;
        ``mixed``     — float32 and float64 met in an accumulation;
        ``redundant`` — a cast to the dtype the value already has.
    """

    kind: str
    node: ast.AST
    source: DType
    target: DType
    detail: str = ""


#: Return-dtype marker: "whatever the ``dtype`` argument names".
@dataclass(frozen=True)
class FollowsParam:
    param: str
    default: DType


@dataclass(frozen=True)
class FunctionSummary:
    """What a call to this function returns, dtype-wise."""

    returns: DType | FollowsParam = DType.UNKNOWN

    def at_call(
        self, call: ast.Call, resolver: "_Resolver", env: Mapping[str, DType]
    ) -> DType:
        if isinstance(self.returns, DType):
            return self.returns
        follows = self.returns
        for kw in call.keywords:
            if kw.arg == follows.param:
                spec = dtype_from_spec(kw.value, resolver)
                return spec if spec is not None else DType.UNKNOWN
        return follows.default


UNKNOWN_SUMMARY = FunctionSummary()

# -- dtype spec evaluation ---------------------------------------------------

#: Canonical names that denote a dtype when used as a ``dtype=`` argument.
_SPEC_NAMES: dict[str, DType] = {
    "float": DType.FLOAT64,
    "numpy.float64": DType.FLOAT64,
    "numpy.double": DType.FLOAT64,
    "numpy.float32": DType.FLOAT32,
    "numpy.single": DType.FLOAT32,
    "int": DType.INT,
    "numpy.int64": DType.INT,
    "numpy.int32": DType.INT,
    "numpy.intp": DType.INT,
}

_SPEC_STRINGS: dict[str, DType] = {
    "float64": DType.FLOAT64,
    "f8": DType.FLOAT64,
    "double": DType.FLOAT64,
    "float32": DType.FLOAT32,
    "f4": DType.FLOAT32,
    "single": DType.FLOAT32,
    "int32": DType.INT,
    "int64": DType.INT,
}

#: ndarray methods that return a view/copy with the same element dtype.
_PRESERVING_METHODS = frozenset(
    {"reshape", "ravel", "copy", "flatten", "transpose", "squeeze", "clip",
     "cumsum", "sum", "min", "max", "mean", "take", "repeat", "item"}
)

#: numpy functions returning the dtype of their first array argument.
_PRESERVING_FUNCS = frozenset(
    {
        "numpy.abs",
        "numpy.absolute",
        "numpy.ascontiguousarray",
        "numpy.atleast_1d",
        "numpy.broadcast_to",
        "numpy.concatenate",
        "numpy.cumsum",
        "numpy.maximum",
        "numpy.minimum",
        "numpy.ravel",
        "numpy.repeat",
        "numpy.reshape",
        "numpy.sort",
        "numpy.squeeze",
        "numpy.stack",
        "numpy.tile",
        "numpy.vstack",
        "numpy.where",  # promote of last two args; first arg is the mask
    }
)

#: numpy allocators whose dtype defaults to float64 when unspecified.
_FLOAT64_DEFAULT_ALLOCATORS = frozenset(
    {"numpy.empty", "numpy.zeros", "numpy.ones", "numpy.full", "numpy.linspace",
     "numpy.zeros_like", "numpy.ones_like", "numpy.empty_like", "numpy.full_like"}
)

#: Integer-valued attribute reads on arrays (exact arithmetic, never float).
_INT_ATTRS = frozenset({"size", "nbytes", "itemsize", "ndim", "start", "stop"})


def dtype_from_spec(node: ast.expr, resolver: "_Resolver") -> DType | None:
    """Evaluate a ``dtype=`` argument expression; None when unrecognised."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _SPEC_STRINGS.get(node.value)
    name = resolver.canonical(node)
    if name is not None:
        return _SPEC_NAMES.get(name)
    if (
        isinstance(node, ast.Call)
        and resolver.canonical(node.func) == "numpy.dtype"
        and node.args
    ):
        return dtype_from_spec(node.args[0], resolver)
    return None


class _Resolver:
    """Alias-aware name resolution + project summary lookup."""

    def __init__(self, info: "ModuleInfo", project: "ProjectIndex | None"):
        self.info = info
        self.project = project

    def canonical(self, node: ast.AST) -> str | None:
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        raw = ".".join(reversed(parts))
        head, _, rest = raw.partition(".")
        resolved = self.info.aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved

    def summary_for_call(self, call: ast.Call) -> FunctionSummary | None:
        if self.project is None:
            # Single-snippet mode: local defs still resolve.
            return None
        target = self.project.resolve_call(self.info, call)
        if target is None:
            return None
        return self.project.summary_for(target.qname)


# -- the propagation walk ----------------------------------------------------


class _FunctionFlow:
    """One pass of forward dtype propagation over a function body."""

    def __init__(self, resolver: _Resolver):
        self.resolver = resolver
        self.env: dict[str, DType] = {}
        self.events: list[DtypeEvent] = []
        self.expr_types: dict[ast.expr, DType] = {}

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.expr) -> DType:
        result = self._eval(node)
        self.expr_types[node] = result
        return result

    def _eval(self, node: ast.expr) -> DType:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return DType.INT
            if isinstance(node.value, float):
                return DType.FLOAT64
            if isinstance(node.value, int):
                return DType.INT
            return DType.UNKNOWN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, DType.UNKNOWN)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if {left, right} == {DType.FLOAT32, DType.FLOAT64}:
                self.events.append(
                    DtypeEvent(
                        "mixed",
                        node,
                        source=DType.FLOAT32,
                        target=DType.FLOAT64,
                        detail="float32 and float64 meet in arithmetic",
                    )
                )
            if isinstance(node.op, (ast.Div,)):
                out = promote(left, right)
                return DType.FLOAT64 if out is DType.INT else out
            return promote(left, right)
        if isinstance(node, ast.IfExp):
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.Subscript):
            # Array indexing/slicing preserves the element dtype.
            return self.eval(node.value)
        if isinstance(node, ast.Attribute):
            if node.attr in _INT_ATTRS:
                return DType.INT
            if node.attr == "T":
                return self.eval(node.value)
            return DType.UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            result = DType.UNKNOWN
            if node.elts:
                result = self.eval(node.elts[0])
                for el in node.elts[1:]:
                    result = join(result, self.eval(el))
            return result
        if isinstance(node, ast.Compare):
            return DType.INT  # boolean mask
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            # Evaluate the element under UNKNOWN loop targets so facts
            # like ``a.nbytes for a in seen`` (provably int) survive.
            for gen in node.generators:
                self.eval(gen.iter)
                self._bind(gen.target, DType.UNKNOWN)
            return self.eval(node.elt)
        return DType.UNKNOWN

    def _dtype_kwarg(self, call: ast.Call) -> DType | None:
        for kw in call.keywords:
            if kw.arg == "dtype":
                return dtype_from_spec(kw.value, self.resolver)
        return None

    def _eval_call(self, call: ast.Call) -> DType:
        # Arguments are expressions too: evaluate them all up front so
        # casts nested in call arguments (``f(grid.astype(float))``)
        # still produce their events.  Re-evaluation by the branches
        # below is harmless — consumers dedupe events by position.
        if not (
            isinstance(call.func, ast.Attribute) and call.func.attr == "astype"
        ):
            for arg in call.args:
                self.eval(arg)
            for kw in call.keywords:
                if kw.arg != "dtype":
                    self.eval(kw.value)

        # ``value.astype(spec)`` — the cast seed and both cast events.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "astype"
        ):
            source = self.eval(call.func.value)
            target: DType | None = None
            if call.args:
                target = dtype_from_spec(call.args[0], self.resolver)
            if target is None:
                target = self._dtype_kwarg(call)
            if target is None:
                return DType.UNKNOWN
            if source is DType.FLOAT64 and target is DType.FLOAT32:
                self.events.append(
                    DtypeEvent("narrow", call, source, target)
                )
            elif source is target and source is not DType.UNKNOWN:
                self.events.append(
                    DtypeEvent("redundant", call, source, target)
                )
            return target

        name = self.resolver.canonical(call.func)
        if name is not None:
            if name in ("numpy.asarray", "numpy.array", "numpy.asfarray"):
                spec = self._dtype_kwarg(call)
                if spec is not None:
                    source = (
                        self.eval(call.args[0]) if call.args else DType.UNKNOWN
                    )
                    if source is DType.FLOAT64 and spec is DType.FLOAT32:
                        self.events.append(
                            DtypeEvent("narrow", call, source, spec)
                        )
                    return spec
                return self.eval(call.args[0]) if call.args else DType.UNKNOWN
            if name in _FLOAT64_DEFAULT_ALLOCATORS:
                spec = self._dtype_kwarg(call)
                if spec is not None:
                    return spec
                if name.endswith("_like") and call.args:
                    return self.eval(call.args[0])
                return DType.FLOAT64
            if name in _PRESERVING_FUNCS:
                if name == "numpy.where" and len(call.args) == 3:
                    return promote(
                        self.eval(call.args[1]), self.eval(call.args[2])
                    )
                return self.eval(call.args[0]) if call.args else DType.UNKNOWN
            if name in ("numpy.bincount", "numpy.dot", "numpy.add"):
                # float64 weights / operands dominate in this codebase;
                # stay UNKNOWN unless an operand is certain.
                if call.args:
                    out = self.eval(call.args[0])
                    for arg in call.args[1:]:
                        out = promote(out, self.eval(arg))
                    return out
                return DType.UNKNOWN
            if name == "float":
                return DType.FLOAT64
            if name in ("int", "len", "round", "numpy.searchsorted",
                        "numpy.argsort", "numpy.arange"):
                if name == "numpy.arange":
                    spec = self._dtype_kwarg(call)
                    if spec is not None:
                        return spec
                    return DType.UNKNOWN
                return DType.INT

        # Dtype-preserving ndarray methods (receiver's dtype flows out).
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _PRESERVING_METHODS
        ):
            receiver = self.eval(call.func.value)
            if receiver is not DType.UNKNOWN:
                return receiver

        # Project-resolved calls: the whole-program hop.
        summary = self.resolver.summary_for_call(call)
        if summary is not None:
            return summary.at_call(call, self.resolver, self.env)
        return DType.UNKNOWN

    # -- statements --------------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        self._exec_block(body)

    def _exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, DType.UNKNOWN)
            else:
                current = self.eval(stmt.target)
            if {current, value} == {DType.FLOAT32, DType.FLOAT64}:
                self.events.append(
                    DtypeEvent(
                        "mixed",
                        stmt,
                        source=value,
                        target=current,
                        detail="accumulation mixes float32 and float64",
                    )
                )
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = promote(current, value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_dtype = self.eval(stmt.iter)
            self._bind(stmt.target, iter_dtype)
            # Two passes so dtypes fed back across iterations settle.
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self._exec_block(stmt.body)
            after_body = self.env
            self.env = before
            self._exec_block(stmt.orelse)
            merged = {
                name: join(
                    after_body.get(name, DType.UNKNOWN),
                    self.env.get(name, DType.UNKNOWN),
                )
                for name in set(after_body) | set(self.env)
            }
            self.env = merged
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.eval(stmt.value)
        # Nested defs/classes are separate scopes; their bodies are
        # analysed when *they* are the function under analysis.

    def _bind(self, target: ast.expr, value: DType) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._bind(el, DType.UNKNOWN)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, DType.UNKNOWN)
        # Subscript/attribute stores don't rebind a variable's dtype.


@dataclass
class FunctionAnalysis:
    """Everything the DTY rules need about one analysed function."""

    node: ast.FunctionDef | ast.AsyncFunctionDef | None
    env: dict[str, DType] = field(default_factory=dict)
    events: list[DtypeEvent] = field(default_factory=list)
    expr_types: dict[ast.expr, DType] = field(default_factory=dict)

    def dtype_of(self, node: ast.expr) -> DType:
        return self.expr_types.get(node, DType.UNKNOWN)


def _seed_params(
    node: ast.FunctionDef | ast.AsyncFunctionDef, resolver: _Resolver
) -> dict[str, DType]:
    """Parameter dtypes from annotations and defaults (conservative)."""
    env: dict[str, DType] = {}
    args = node.args
    positional = args.posonlyargs + args.args
    defaults: list[ast.expr | None] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        seeded = _dtype_from_annotation(arg.annotation)
        if seeded is None and default is not None:
            spec = dtype_from_spec(default, resolver)
            if spec is not None and arg.arg == "dtype":
                seeded = None  # dtype params carry a *spec*, not a value
        if seeded is not None:
            env[arg.arg] = seeded
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        seeded = _dtype_from_annotation(arg.annotation)
        if seeded is not None:
            env[arg.arg] = seeded
    return env


def _dtype_from_annotation(annotation: ast.expr | None) -> DType | None:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        if annotation.id == "float":
            return DType.FLOAT64
        if annotation.id == "int":
            return DType.INT
    return None


def analyse_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    info: "ModuleInfo",
    project: "ProjectIndex | None",
) -> FunctionAnalysis:
    """Propagate dtypes through one function body."""
    resolver = _Resolver(info, project)
    flow = _FunctionFlow(resolver)
    flow.env.update(_seed_params(node, resolver))
    flow.run(node.body)
    return FunctionAnalysis(
        node=node, env=flow.env, events=flow.events, expr_types=flow.expr_types
    )


def analyse_module_level(
    info: "ModuleInfo", project: "ProjectIndex | None"
) -> FunctionAnalysis:
    """Propagate dtypes through module-level statements."""
    resolver = _Resolver(info, project)
    flow = _FunctionFlow(resolver)
    body = [
        stmt
        for stmt in info.tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    flow.run(body)
    return FunctionAnalysis(
        node=None, env=flow.env, events=flow.events, expr_types=flow.expr_types
    )


def analyse_module(
    info: "ModuleInfo", project: "ProjectIndex | None"
) -> Iterator[FunctionAnalysis]:
    """Analyses for every function in ``info`` plus the module level."""
    for node in ast.walk(info.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield analyse_function(node, info, project)
    yield analyse_module_level(info, project)


# -- summaries ---------------------------------------------------------------


def summarise_function(
    fn: "FunctionInfo", info: "ModuleInfo", project: "ProjectIndex"
) -> FunctionSummary:
    """Return-dtype summary for one function.

    Two shapes are recognised: a concrete lattice value (every return
    statement agrees) and the *follows-dtype-parameter* pattern, where
    the returned value's dtype traces back to a ``dtype`` parameter with
    a recognisable default (``as_float_array`` and friends).
    """
    resolver = _Resolver(info, project)
    node = fn.node

    follows = _follows_dtype_param(node, resolver)
    if follows is not None:
        return FunctionSummary(returns=follows)

    flow = _FunctionFlow(resolver)
    flow.env.update(_seed_params(node, resolver))
    flow.run(node.body)
    returns = [
        stmt
        for stmt in _walk_same_scope(node)
        if isinstance(stmt, ast.Return) and stmt.value is not None
    ]
    if not returns:
        return UNKNOWN_SUMMARY
    result: DType | None = None
    for stmt in returns:
        value = flow.expr_types.get(stmt.value, DType.UNKNOWN)
        if value is DType.UNKNOWN:
            value = flow.eval(stmt.value)
        result = value if result is None else join(result, value)
    return FunctionSummary(returns=result if result is not None else DType.UNKNOWN)


def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _follows_dtype_param(
    node: ast.FunctionDef | ast.AsyncFunctionDef, resolver: _Resolver
) -> FollowsParam | None:
    """Detect the ``def f(..., dtype=np.float64): return asarray(x, dtype=dtype)``
    shape, where the function's return dtype is whatever the caller passed."""
    args = node.args
    positional = args.posonlyargs + args.args
    dtype_default: DType | None = None
    defaults: list[ast.expr | None] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        if arg.arg == "dtype" and default is not None:
            dtype_default = dtype_from_spec(default, resolver)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == "dtype" and default is not None:
            dtype_default = dtype_from_spec(default, resolver)
    if dtype_default is None:
        return None
    # The dtype parameter must actually reach an asarray/astype seed that
    # flows (through preserving operations) to every return.
    uses_dtype = any(
        isinstance(sub, ast.keyword)
        and sub.arg == "dtype"
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "dtype"
        for sub in ast.walk(node)
    )
    if not uses_dtype:
        return None
    return FollowsParam(param="dtype", default=dtype_default)
