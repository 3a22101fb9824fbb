"""Array-contract dataflow checking at the native boundary (REPRO-NATIVE001).

The ctypes kernel call in :mod:`repro.timing.compiled` hands raw data
pointers to ``sta_kernel.c``.  The C side indexes those buffers as
dense ``double``/``int64_t`` arrays — a value that arrives with the
wrong dtype or a non-C-contiguous layout does not crash, it silently
reinterprets memory and corrupts every downstream statistic.  This
module proves, statically, that no such value can reach the boundary:

- a **fact lattice** over numpy values — :class:`ArrayFact` tracks
  ``(dtype, C-contiguity)`` where each component is either known or
  unknown (``None``), with symbolic :class:`DTypeParam` entries for
  helpers whose output dtype is one of their parameters;
- an **intraprocedural forward pass** (:class:`_Evaluator`) with
  transfer functions for the numpy constructors, conversions, slicing,
  arithmetic promotion and ``out=`` idioms the timing code uses,
  branch-join over ``if``/loops/``try``, and instance-attribute facts
  collected across each class's methods;
- **interprocedural propagation**: every ``x.ctypes.data_as(ptr)``
  demand site either checks the incoming fact on the spot or — when the
  value is a function parameter — records a dtype *requirement* on that
  parameter, which is then enforced at every call site along the
  project call graph (so a dtype drift introduced three helpers above
  the boundary is reported at the drifting call, not inside the
  helper).

A value that reaches a ``POINTER(c_double)`` / ``POINTER(c_int64)``
argument without being provably ``float64`` / ``int64`` C-contiguous is
reported as **REPRO-NATIVE001**; intentional escape hatches must carry
an inline ``# repro-lint: disable=REPRO-NATIVE001`` suppression with a
justification (kept honest by the stale-suppression check,
REPRO-LINT001).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.engine import Violation, register_project_check
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Resolver,
    _dotted_name,
)

__all__ = [
    "ArrayFact",
    "DTypeParam",
    "FunctionSummary",
    "NATIVE_RULE_ID",
    "NativeBoundaryChecker",
    "check_native_boundary",
]

NATIVE_RULE_ID = "REPRO-NATIVE001"

NATIVE_RULE_TITLE = "unproven dtype/contiguity at the ctypes boundary"
NATIVE_RULE_RATIONALE = """The native kernel indexes the raw pointers it
receives as dense float64/int64 buffers; a value whose dtype or
C-contiguity cannot be proven at the .ctypes.data_as(...) boundary (or
at a call feeding such a boundary through a helper) silently
reinterprets memory instead of crashing.  Make the contract explicit
(np.ascontiguousarray(..., dtype=...)) or suppress with a written
justification."""

NATIVE_RULE_EXAMPLE = """table = np.asarray(rows)            # dtype/layout unproven
kernel.sta_run(table, out)          # crosses the ctypes boundary"""

register_project_check(
    NATIVE_RULE_ID,
    NATIVE_RULE_TITLE,
    NATIVE_RULE_RATIONALE,
    example=NATIVE_RULE_EXAMPLE,
)


# ----------------------------------------------------------------------
# Fact domain.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DTypeParam:
    """Symbolic dtype: 'whatever dtype the function's parameter *i* names'."""

    index: int


DTypeSpec = Union[str, DTypeParam, None]


@dataclass(frozen=True)
class ArrayFact:
    """What is provable about one numpy array value.

    ``dtype`` is a canonical dtype name (``"float64"``), a symbolic
    :class:`DTypeParam`, or ``None`` (unknown).  ``contiguous`` is
    ``True`` (provably C-contiguous) or ``None`` (unknown) — there is
    no need for a provably-False state, unknown already fails the
    boundary check.
    """

    dtype: DTypeSpec = None
    contiguous: Optional[bool] = None


@dataclass(frozen=True)
class ParamFact:
    """Placeholder for 'the value of the enclosing function's parameter *i*'."""

    index: int


@dataclass(frozen=True)
class DTypeValue:
    """A dtype object itself (``np.float64`` as a value, not an array)."""

    name: str


@dataclass(frozen=True)
class PointerValue:
    """A ``ctypes.POINTER(c_*)`` type object, carrying the element dtype."""

    dtype: str


@dataclass(frozen=True)
class FunctionValue:
    """A first-class reference to a project function (incl. nested defs)."""

    qualname: str


@dataclass(frozen=True)
class _Singleton:
    label: str


#: Completely unknown value.
UNKNOWN = _Singleton("unknown")
#: The constant ``None`` (treated as bottom in joins: guarded away).
NONE = _Singleton("none")
#: The implicit ``self`` receiver inside a method.
SELF = _Singleton("self")


@dataclass(frozen=True)
class ScalarFact:
    """A Python/numpy scalar; ``kind`` drives arithmetic promotion."""

    kind: str  # "float" | "int" | "other"


Fact = object


def join(a: Fact, b: Fact) -> Fact:
    """Least upper bound of two facts (``NONE`` is bottom: branches that
    produce ``None`` are always guarded before the boundary)."""
    if a == b:
        return a
    if a is NONE:
        return b
    if b is NONE:
        return a
    if isinstance(a, ArrayFact) and isinstance(b, ArrayFact):
        return ArrayFact(
            dtype=a.dtype if a.dtype == b.dtype else None,
            contiguous=True if (a.contiguous and b.contiguous) else None,
        )
    if isinstance(a, ScalarFact) and isinstance(b, ScalarFact):
        return a if a.kind == b.kind else ScalarFact("other")
    return UNKNOWN


def _promote(a: Fact, b: Fact) -> Fact:
    """NEP-50-style result fact of elementwise arithmetic on ``a``/``b``."""
    facts = [f for f in (a, b) if isinstance(f, ArrayFact)]
    if not facts:
        return ScalarFact("other")
    dtypes: List[DTypeSpec] = [f.dtype for f in facts]
    for other in (a, b):
        if isinstance(other, ScalarFact) and other.kind == "float":
            dtypes.append("float64")
    if any(d is None or isinstance(d, DTypeParam) for d in dtypes):
        dtype: DTypeSpec = None
    elif "float64" in dtypes:
        dtype = "float64"
    elif len(set(dtypes)) == 1:
        dtype = dtypes[0]
    else:
        dtype = None
    # Elementwise ops allocate a fresh (C-contiguous) result.
    return ArrayFact(dtype=dtype, contiguous=True)


# ----------------------------------------------------------------------
# Name tables for external APIs.
# ----------------------------------------------------------------------
_CTYPES_ELEMENT_DTYPES = {
    "c_double": "float64",
    "c_float": "float32",
    "c_int64": "int64",
    "c_longlong": "int64",
    "c_int32": "int32",
    "c_int": "int32",
}

_NUMPY_DTYPE_NAMES = {
    "float64": "float64",
    "double": "float64",
    "float32": "float32",
    "int64": "int64",
    "int32": "int32",
    "intp": "int64",
}

#: numpy constructors returning a fresh C-contiguous array whose dtype is
#: the ``dtype`` argument (default float64 when omitted).
_FRESH_FLOAT_DEFAULT = frozenset({"empty", "zeros", "ones", "full"})

#: ufuncs whose ``out=`` argument is returned (fact of ``out``), and whose
#: plain form allocates a promoted result.
_UFUNCS = frozenset(
    {"add", "subtract", "multiply", "divide", "true_divide", "maximum",
     "minimum", "abs", "absolute", "exp", "log", "sqrt", "square"}
)


@dataclass
class FunctionSummary:
    """Interprocedural summary of one project function."""

    qualname: str
    return_fact: Fact = UNKNOWN
    #: param index → dtype name that parameter must provably carry
    #: (C-contiguous) because it reaches a ``data_as`` boundary.
    param_requirements: Dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class RawFinding:
    """One boundary failure, before being wrapped as a :class:`Violation`."""

    path: str
    line: int
    col: int
    message: str


class NativeBoundaryChecker:
    """Whole-program driver for the array-contract dataflow analysis."""

    def __init__(self, model: ProjectModel):
        self.model = model
        self._summaries: Dict[str, FunctionSummary] = {}
        self._in_progress: Set[str] = set()
        self._closure_envs: Dict[str, Dict[str, Fact]] = {}
        self._attr_facts: Dict[Tuple[str, str], Fact] = {}
        self._attr_seen: Set[Tuple[str, str]] = set()
        self._module_eval_guard: Set[Tuple[str, str]] = set()
        self.findings: List[RawFinding] = []
        self._collect = False

    # ------------------------------------------------------------------
    def run(self) -> List[RawFinding]:
        """Two-phase analysis: learn instance-attribute facts, then check.

        Phase 1 summarizes every function with an empty attribute table,
        recording the joined fact of every ``self.attr = ...`` store per
        class.  Phase 2 re-summarizes with those facts available (so
        ``_execute_native`` can read what ``__init__`` proved) and
        collects boundary findings.  Nested functions come after their
        enclosing function, so a closure that is only ever called
        through a function value is still checked, with the names it
        closed over.
        """
        for phase in (1, 2):
            self._summaries.clear()
            self._closure_envs.clear()
            self._collect = phase == 2
            for info in self.model.iter_functions():
                self.summary_of(info.qualname)
        # Findings can be discovered twice when a function is both
        # analyzed standalone and re-summarized via a call chain.
        unique = sorted(set(self.findings), key=lambda f: (f.path, f.line, f.col))
        self.findings = unique
        return unique

    # ------------------------------------------------------------------
    def summary_of(
        self, qualname: str, closure_env: Optional[Dict[str, Fact]] = None
    ) -> FunctionSummary:
        """Memoized summary of ``qualname`` (recursion degrades to unknown)."""
        cached = self._summaries.get(qualname)
        if cached is not None:
            return cached
        if qualname in self._in_progress:
            return FunctionSummary(qualname)
        info = self.model.function(qualname)
        if info is None:
            return FunctionSummary(qualname)
        if closure_env is None:
            closure_env = self._closure_envs.get(qualname)
        self._in_progress.add(qualname)
        try:
            evaluator = _Evaluator(self, info, closure_env or {})
            summary = evaluator.summarize()
        finally:
            self._in_progress.discard(qualname)
        self._summaries[qualname] = summary
        return summary

    # ------------------------------------------------------------------
    def record_attr(self, class_qualname: str, attr: str, fact: Fact) -> None:
        """Join a ``self.attr = value`` fact into the class attribute table."""
        if self._collect:
            return  # table is frozen during the checking phase
        key = (class_qualname, attr)
        if key in self._attr_seen:
            self._attr_facts[key] = join(self._attr_facts[key], fact)
        else:
            self._attr_seen.add(key)
            self._attr_facts[key] = fact

    def attr_fact(self, class_qualname: str, attr: str) -> Fact:
        """Joined fact for an instance attribute, or UNKNOWN."""
        return self._attr_facts.get((class_qualname, attr), UNKNOWN)

    def report(self, info: FunctionInfo, node: ast.AST, message: str) -> None:
        """Record one boundary finding (checking phase only)."""
        if not self._collect:
            return
        module = self.model.module_of(info)
        self.findings.append(
            RawFinding(
                path=module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # ------------------------------------------------------------------
    def module_scope_fact(self, module: ModuleInfo, name: str) -> Fact:
        """Fact of a module-level name (constant pointer/dtype aliases)."""
        fqn = module.functions.get(name)
        if fqn is not None:
            return FunctionValue(fqn)
        expr = module.module_assigns.get(name)
        if expr is not None:
            guard_key = (module.name, name)
            if guard_key in self._module_eval_guard:
                return UNKNOWN
            self._module_eval_guard.add(guard_key)
            try:
                evaluator = _Evaluator(self, None, {}, module=module)
                return evaluator.eval(expr)
            finally:
                self._module_eval_guard.discard(guard_key)
        return UNKNOWN


def _describe(fact: Fact) -> str:
    """Human rendering of a fact for violation messages."""
    if isinstance(fact, ArrayFact):
        dtype = fact.dtype if isinstance(fact.dtype, str) else "unknown"
        contig = "C-contiguous" if fact.contiguous else "unknown layout"
        return f"array(dtype={dtype}, {contig})"
    if fact is UNKNOWN:
        return "value with no provable array facts"
    if isinstance(fact, ScalarFact):
        return f"{fact.kind} scalar"
    if fact is NONE:
        return "None"
    return type(fact).__name__


class _Evaluator:
    """Forward dataflow over one function body (or one module-level expr)."""

    def __init__(
        self,
        checker: NativeBoundaryChecker,
        info: Optional[FunctionInfo],
        closure_env: Dict[str, Fact],
        module: Optional[ModuleInfo] = None,
    ):
        self.checker = checker
        self.info = info
        self.module = (
            module
            if module is not None
            else checker.model.module_of(info)  # type: ignore[arg-type]
        )
        self.resolver = Resolver(checker.model, self.module)
        self.closure_env = closure_env
        self.env: Dict[str, Fact] = {}
        self.summary = FunctionSummary(info.qualname if info else "<module>")
        self.return_facts: List[Fact] = []
        self._globals: Set[str] = set()

    # ------------------------------------------------------------------
    def summarize(self) -> FunctionSummary:
        assert self.info is not None
        for index, name in enumerate(self.info.params):
            if index == 0 and self.info.is_method and name in ("self", "cls"):
                self.env[name] = SELF
            else:
                self.env[name] = ParamFact(index)
        self.exec_body(self.info.node.body)
        if self.return_facts:
            fact = self.return_facts[0]
            for other in self.return_facts[1:]:
                fact = join(fact, other)
            self.summary.return_fact = fact
        else:
            self.summary.return_fact = NONE
        return self.summary

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------
    def exec_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            fact = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, fact)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            current = self._read_target(stmt.target)
            self._bind(stmt.target, _promote(current, self.eval(stmt.value)))
        elif isinstance(stmt, ast.Return):
            fact = self.eval(stmt.value) if stmt.value is not None else NONE
            self.return_facts.append(fact)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_body(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(after_body, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            self._bind(stmt.target, UNKNOWN)
            before = dict(self.env)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(before, self.env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(before, self.env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, UNKNOWN)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.exec_body(stmt.body)
            branches = [self.env]
            for handler in stmt.handlers:
                self.env = dict(before)
                if handler.name:
                    self.env[handler.name] = UNKNOWN
                self.exec_body(handler.body)
                branches.append(self.env)
            merged = branches[0]
            for branch in branches[1:]:
                merged = self._join_envs(merged, branch)
            self.env = merged
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self.info is not None:
                qual = f"{self.info.qualname}.{stmt.name}"
                if self.checker.model.function(qual) is not None:
                    self.env[stmt.name] = FunctionValue(qual)
                    # Snapshot the lexical environment at definition time
                    # so the nested function sees its closed-over names.
                    self.checker._closure_envs[qual] = dict(self.env)
        elif isinstance(stmt, ast.Global):
            self._globals.update(stmt.names)
        elif isinstance(stmt, (ast.Delete,)):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)

    def _bind(self, target: ast.expr, fact: Fact) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = fact
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and self.env.get(base.id) is SELF:
                self.env[f"self.{target.attr}"] = fact
                if self.info is not None and self.info.class_qualname:
                    self.checker.record_attr(
                        self.info.class_qualname, target.attr, fact
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, UNKNOWN)
        # subscript stores do not change the container's own facts

    def _read_target(self, target: ast.expr) -> Fact:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, UNKNOWN)
        return self.eval(target) if isinstance(target, ast.expr) else UNKNOWN

    @staticmethod
    def _join_envs(
        a: Dict[str, Fact], b: Dict[str, Fact]
    ) -> Dict[str, Fact]:
        merged: Dict[str, Fact] = {}
        for key in set(a) | set(b):
            in_a, in_b = key in a, key in b
            if in_a and in_b:
                merged[key] = join(a[key], b[key])
            else:
                merged[key] = a.get(key, b.get(key, UNKNOWN))
        return merged

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr) -> Fact:
        if isinstance(node, ast.Constant):
            if node.value is None:
                return NONE
            if isinstance(node.value, bool):
                return ScalarFact("other")
            if isinstance(node.value, float):
                return ScalarFact("float")
            if isinstance(node.value, int):
                return ScalarFact("int")
            if isinstance(node.value, str):
                name = _NUMPY_DTYPE_NAMES.get(node.value)
                if name is not None:
                    return DTypeValue(name)
            return ScalarFact("other")
        if isinstance(node, ast.Name):
            return self._eval_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp):
            return _promote(self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            fact = self.eval(node.values[0])
            for value in node.values[1:]:
                fact = join(fact, self.eval(value))
            return fact
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comparator in node.comparators:
                self.eval(comparator)
            return ScalarFact("other")
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return UNKNOWN
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return ScalarFact("other")
        return UNKNOWN

    def _eval_name(self, name: str) -> Fact:
        if name in self.env and name not in self._globals:
            return self.env[name]
        if name in self.closure_env:
            return self.closure_env[name]
        if name == "float":
            return DTypeValue("float64")
        if name == "int":
            return DTypeValue("int64")
        return self.checker.module_scope_fact(self.module, name)

    def _eval_attribute(self, node: ast.Attribute) -> Fact:
        base = node.value
        if isinstance(base, ast.Name):
            base_fact = self._eval_name(base.id)
            if base_fact is SELF:
                key = f"self.{node.attr}"
                if key in self.env:
                    return self.env[key]
                owner = (
                    self.checker.model.owner_class(self.info)
                    if self.info is not None
                    else None
                )
                if owner is not None:
                    return self.checker.attr_fact(owner, node.attr)
                return UNKNOWN
            if isinstance(base_fact, ArrayFact) and node.attr == "T":
                return ArrayFact(dtype=base_fact.dtype, contiguous=None)
        dotted = _dotted_name(node)
        if dotted is not None:
            target = self.resolver.resolve_target(dotted)
            if target is not None:
                if target.startswith("numpy."):
                    name = _NUMPY_DTYPE_NAMES.get(target[len("numpy."):])
                    if name is not None:
                        return DTypeValue(name)
                if target.startswith("ctypes."):
                    element = _CTYPES_ELEMENT_DTYPES.get(
                        target[len("ctypes."):]
                    )
                    if element is not None:
                        # The bare c_* type; POINTER() wraps it below.
                        return DTypeValue(element)
                resolved = self.checker.model.lookup_callable(target)
                if resolved is not None:
                    return FunctionValue(resolved)
        self.eval(node.value)
        return UNKNOWN

    # -- subscripts -----------------------------------------------------
    def _eval_subscript(self, node: ast.Subscript) -> Fact:
        base = self.eval(node.value)
        index = node.slice
        if not isinstance(base, ArrayFact):
            return UNKNOWN
        if isinstance(index, ast.Slice):
            if index.step is None:
                # A leading simple slice of a C-contiguous array is a
                # view over a contiguous prefix — still C-contiguous.
                return base
            return ArrayFact(dtype=base.dtype, contiguous=None)
        if isinstance(index, ast.Tuple):
            # Multi-axis indexing: a column view breaks contiguity;
            # advanced (array) indexing copies.  Distinguishing the two
            # precisely is not worth it — either way contiguity is no
            # longer *this* fact's to claim unless every element is a
            # full slice.
            return ArrayFact(dtype=base.dtype, contiguous=None)
        if isinstance(index, ast.Constant) and isinstance(index.value, int):
            # Dropping the leading axis of a C-contiguous array keeps
            # the remainder C-contiguous.
            return base
        # Advanced indexing with an index array allocates a fresh
        # C-contiguous result of the same dtype.
        index_fact = self.eval(index)
        if isinstance(index_fact, ArrayFact):
            return ArrayFact(dtype=base.dtype, contiguous=True)
        return ArrayFact(dtype=base.dtype, contiguous=None)

    # -- calls ----------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Fact:
        func = node.func
        # x.ctypes.data_as(ptr) — THE demand site.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "data_as"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "ctypes"
        ):
            self._check_boundary(func.value.value, node)
            return UNKNOWN

        # Array conversion methods.
        if isinstance(func, ast.Attribute):
            method_fact = self._eval_array_method(func, node)
            if method_fact is not None:
                return method_fact

        # numpy constructors / ufuncs.
        numpy_name = self._numpy_callee(func)
        if numpy_name is not None:
            return self._eval_numpy_call(numpy_name, node)

        # ctypes.POINTER(c_double) → a pointer-type value.
        dotted = _dotted_name(func)
        if dotted is not None:
            target = self.resolver.resolve_target(dotted)
            if target == "ctypes.POINTER" and node.args:
                element = self.eval(node.args[0])
                if isinstance(element, DTypeValue):
                    return PointerValue(element.name)
                return UNKNOWN

        # Project calls (named, nested, or self.method).
        callee, offset = self._resolve_project_call(func)
        for arg in node.args:
            self.eval(arg)  # facts cached below via _arg_fact re-eval
        for keyword in node.keywords:
            if keyword.value is not None:
                self.eval(keyword.value)
        if callee is None:
            return UNKNOWN
        summary = self.checker.summary_of(callee)
        info = self.checker.model.function(callee)
        self._check_call_requirements(node, summary, info, offset)
        return self._substitute_return(node, summary, info, offset)

    def _eval_array_method(
        self, func: ast.Attribute, node: ast.Call
    ) -> Optional[Fact]:
        """Transfer functions for ndarray conversion methods, or None."""
        attr = func.attr
        if attr not in ("astype", "copy", "reshape", "ravel", "flatten", "view"):
            return None
        base = self.eval(func.value)
        if not isinstance(base, ArrayFact):
            return None
        if attr == "astype":
            dtype = self._dtype_argument(node, position=0)
            return ArrayFact(dtype=dtype, contiguous=base.contiguous)
        if attr in ("copy", "flatten"):
            return ArrayFact(dtype=base.dtype, contiguous=True)
        if attr == "ravel":
            return ArrayFact(dtype=base.dtype, contiguous=base.contiguous)
        if attr == "reshape":
            # Reshaping a contiguous array yields a contiguous view.
            return ArrayFact(dtype=base.dtype, contiguous=base.contiguous)
        if attr == "view":
            return ArrayFact(dtype=None, contiguous=base.contiguous)
        return None

    def _numpy_callee(self, func: ast.expr) -> Optional[str]:
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        target = self.resolver.resolve_target(dotted)
        if target is not None and target.startswith("numpy."):
            rest = target[len("numpy."):]
            if "." not in rest:
                return rest
        return None

    def _dtype_argument(
        self, node: ast.Call, position: Optional[int]
    ) -> DTypeSpec:
        """The dtype named by a call's ``dtype=`` kwarg / positional arg."""
        expr: Optional[ast.expr] = None
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                expr = keyword.value
                break
        if expr is None and position is not None and len(node.args) > position:
            expr = node.args[position]
        if expr is None:
            return None
        fact = self.eval(expr)
        if isinstance(fact, DTypeValue):
            return fact.name
        if isinstance(fact, ParamFact):
            return DTypeParam(fact.index)
        return None

    def _eval_numpy_call(self, name: str, node: ast.Call) -> Fact:
        for arg in node.args:
            self.eval(arg)
        if name in _FRESH_FLOAT_DEFAULT:
            position = {"empty": 1, "zeros": 1, "ones": 1, "full": 2}[name]
            dtype = self._dtype_argument(node, position=position)
            return ArrayFact(dtype=dtype or "float64", contiguous=True)
        if name in ("empty_like", "zeros_like", "ones_like", "full_like"):
            dtype = self._dtype_argument(node, position=None)
            if dtype is None and node.args:
                base = self.eval(node.args[0])
                if isinstance(base, ArrayFact):
                    dtype = base.dtype
            return ArrayFact(dtype=dtype, contiguous=True)
        if name == "array":
            return ArrayFact(
                dtype=self._dtype_argument(node, position=1), contiguous=True
            )
        if name == "asarray":
            dtype = self._dtype_argument(node, position=1)
            base = self.eval(node.args[0]) if node.args else UNKNOWN
            contiguous = (
                base.contiguous if isinstance(base, ArrayFact) else None
            )
            if dtype is None and isinstance(base, ArrayFact):
                dtype = base.dtype
            return ArrayFact(dtype=dtype, contiguous=contiguous)
        if name == "ascontiguousarray":
            dtype = self._dtype_argument(node, position=1)
            if dtype is None and node.args:
                base = self.eval(node.args[0])
                if isinstance(base, ArrayFact):
                    dtype = base.dtype
            return ArrayFact(dtype=dtype, contiguous=True)
        if name == "arange":
            dtype = self._dtype_argument(node, position=None)
            if dtype is None:
                kinds = {
                    "float" if isinstance(f, ScalarFact) and f.kind == "float"
                    else "int" if isinstance(f, ScalarFact) and f.kind == "int"
                    else "other"
                    for f in (self.eval(a) for a in node.args)
                }
                if kinds <= {"int"}:
                    dtype = "int64"
                elif "float" in kinds and kinds <= {"int", "float"}:
                    dtype = "float64"
            return ArrayFact(dtype=dtype, contiguous=True)
        if name in ("concatenate", "stack", "hstack", "vstack", "repeat"):
            dtype = self._dtype_argument(node, position=None)
            return ArrayFact(dtype=dtype, contiguous=True)
        if name == "bincount":
            return ArrayFact(dtype="int64", contiguous=True)
        if name == "full":
            return ArrayFact(
                dtype=self._dtype_argument(node, position=2), contiguous=True
            )
        if name in _UFUNCS:
            for keyword in node.keywords:
                if keyword.arg == "out":
                    return self.eval(keyword.value)
            facts = [self.eval(a) for a in node.args]
            if len(facts) == 1:
                only = facts[0]
                return (
                    ArrayFact(dtype=only.dtype, contiguous=True)
                    if isinstance(only, ArrayFact)
                    else UNKNOWN
                )
            if len(facts) >= 2:
                return _promote(facts[0], facts[1])
            return UNKNOWN
        for keyword in node.keywords:
            if keyword.value is not None:
                self.eval(keyword.value)
        return UNKNOWN

    # -- interprocedural glue -------------------------------------------
    def _resolve_project_call(
        self, func: ast.expr
    ) -> Tuple[Optional[str], int]:
        """(callee qualname, parameter offset) for a project call, else None.

        The offset is 1 for bound-method and constructor calls, where
        positional argument *k* maps to callee parameter ``k + 1``.
        """
        if isinstance(func, ast.Name):
            bound = self.env.get(func.id, self.closure_env.get(func.id))
            if isinstance(bound, FunctionValue):
                return bound.qualname, 0
            if func.id in self.env or func.id in self.closure_env:
                return None, 0
            target = self.resolver.resolve_target(func.id)
            if target is not None:
                callee = self.checker.model.lookup_callable(target)
                if callee is not None:
                    offset = (
                        1
                        if self.checker.model.class_of_callable(target)
                        else 0
                    )
                    return callee, offset
            return None, 0
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and self.env.get(base.id) is SELF:
                if self.info is not None and self.info.class_qualname:
                    klass = self.checker.model.classes.get(
                        self.info.class_qualname
                    )
                    if klass is not None:
                        method = klass.methods.get(func.attr)
                        if method is not None:
                            return method, 1
                return None, 0
            dotted = _dotted_name(func)
            if dotted is not None:
                target = self.resolver.resolve_target(dotted)
                if target is not None:
                    callee = self.checker.model.lookup_callable(target)
                    if callee is not None:
                        offset = (
                            1
                            if self.checker.model.class_of_callable(target)
                            else 0
                        )
                        return callee, offset
        return None, 0

    def _argument_for_param(
        self,
        node: ast.Call,
        info: Optional[FunctionInfo],
        param_index: int,
        offset: int,
    ) -> Optional[ast.expr]:
        positional = param_index - offset
        if 0 <= positional < len(node.args):
            arg = node.args[positional]
            return None if isinstance(arg, ast.Starred) else arg
        if info is not None and 0 <= param_index < len(info.params):
            wanted = info.params[param_index]
            for keyword in node.keywords:
                if keyword.arg == wanted:
                    return keyword.value
        return None

    def _check_call_requirements(
        self,
        node: ast.Call,
        summary: FunctionSummary,
        info: Optional[FunctionInfo],
        offset: int,
    ) -> None:
        for param_index, required in sorted(summary.param_requirements.items()):
            arg = self._argument_for_param(node, info, param_index, offset)
            if arg is None:
                continue
            fact = self.eval(arg)
            if fact is NONE:
                continue
            if isinstance(fact, ParamFact):
                self.summary.param_requirements.setdefault(
                    fact.index, required
                )
                continue
            if not self._provably(fact, required):
                callee_name = summary.qualname.rpartition(".")[2]
                self._report(
                    arg,
                    f"argument feeds a POINTER(c_{_c_name(required)}) "
                    f"boundary inside {callee_name}() but is "
                    f"{_describe(fact)}; prove the contract with "
                    f"np.ascontiguousarray(..., dtype=np.{required}) or "
                    f"suppress with a justification",
                )

    def _substitute_return(
        self,
        node: ast.Call,
        summary: FunctionSummary,
        info: Optional[FunctionInfo],
        offset: int,
    ) -> Fact:
        fact = summary.return_fact
        if isinstance(fact, ArrayFact) and isinstance(fact.dtype, DTypeParam):
            arg = self._argument_for_param(node, info, fact.dtype.index, offset)
            dtype: DTypeSpec = None
            if arg is not None:
                arg_fact = self.eval(arg)
                if isinstance(arg_fact, DTypeValue):
                    dtype = arg_fact.name
                elif isinstance(arg_fact, ParamFact):
                    dtype = DTypeParam(arg_fact.index)
            return ArrayFact(dtype=dtype, contiguous=fact.contiguous)
        if isinstance(fact, ParamFact):
            arg = self._argument_for_param(node, info, fact.index, offset)
            return self.eval(arg) if arg is not None else UNKNOWN
        return fact

    # -- the boundary check ---------------------------------------------
    @staticmethod
    def _provably(fact: Fact, required: str) -> bool:
        return (
            isinstance(fact, ArrayFact)
            and fact.dtype == required
            and fact.contiguous is True
        )

    def _check_boundary(self, value: ast.expr, call: ast.Call) -> None:
        pointer = self.eval(call.args[0]) if call.args else UNKNOWN
        if not isinstance(pointer, PointerValue):
            return  # unrecognized pointer type: no contract to check
        required = pointer.dtype
        fact = self.eval(value)
        if isinstance(fact, ParamFact):
            self.summary.param_requirements.setdefault(fact.index, required)
            return
        if fact is NONE:
            return
        if not self._provably(fact, required):
            self._report(
                call,
                f".ctypes.data_as(POINTER(c_{_c_name(required)})) on "
                f"{_describe(fact)}; the native kernel requires a "
                f"C-contiguous {required} array — prove it with "
                f"np.ascontiguousarray(..., dtype=np.{required}) or "
                f"suppress with a justification",
            )

    def _report(self, node: ast.AST, message: str) -> None:
        if self.info is not None:
            self.checker.report(self.info, node, message)


def _c_name(dtype: str) -> str:
    return {"float64": "double", "float32": "float", "int64": "int64",
            "int32": "int32"}.get(dtype, dtype)


def check_native_boundary(model: ProjectModel) -> List[Violation]:
    """Run the REPRO-NATIVE001 analysis over a project model."""
    checker = NativeBoundaryChecker(model)
    return [
        Violation(
            path=finding.path,
            line=finding.line,
            col=finding.col,
            rule_id=NATIVE_RULE_ID,
            message=finding.message,
        )
        for finding in checker.run()
    ]
