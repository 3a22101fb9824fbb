"""Symbolic shape/bounds verification (REPRO-SHAPE001/002).

The dtype pass (:mod:`repro.analysis.dataflow`) proves *what* crosses
the ctypes boundary; this pass proves *how much*.  Every value is
tracked with a symbolic shape — each dim an affine/polynomial
expression (:class:`repro.analysis.symbolic.Poly`) over named size
atoms — propagated through numpy constructors, reshapes, slicing and
broadcasting by a forward evaluator modelled on ``dataflow._Evaluator``
but with per-call-site inlining so size identities survive helper
boundaries.

Two rules come out of the same lattice:

- **REPRO-SHAPE001** — a numpy elementwise op whose operand shapes are
  *statically provable* constants that do not broadcast.  Symbolic or
  unknown dims never fire; the rule only reports what numpy itself
  would raise at runtime.
- **REPRO-SHAPE002** — the native-boundary buffer contract.  For every
  call whose callee is the loaded kernel entry point
  (``native.load_kernel()``), every pointer
  argument must carry a symbolic size that provably dominates the
  extent :func:`repro.analysis.cabi.kernel_buffer_obligations` derives
  from ``sta_kernel.c``'s loop headers and declared annotations.  Like
  NATIVE001, the pass refuses to guess: an argument whose C-side extent
  is not derivable is reported *distinctly* (pin it or suppress with a
  justification), and an argument whose Python-side size cannot be
  proven to dominate is reported with the allocation site in the chain.

Soundness conventions:

- every size atom denotes one runtime value and is assumed to be a
  non-negative integer (the pass only names size-like quantities);
- ``min``/``max``/branch joins create fresh atoms carrying only bounds
  that hold for the joined value;
- ``assert a.size == b.size`` statements unify atoms (union-find), which
  is how packed-table length pins in ``timing/compiled.py`` become
  usable facts;
- the prover (:func:`repro.analysis.symbolic.prove_ge`) is one-sided —
  "not provable" never becomes "provably false", so SHAPE002 findings
  mean "show me the proof", not "this is wrong".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import cabi
from repro.analysis.engine import Violation, register_project_check
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Resolver,
    _dotted_name,
)
from repro.analysis.symbolic import Poly, poly_lower_bound, parse_expr, prove_ge

__all__ = [
    "BUFFER_RULE_ID",
    "SHAPE_RULE_ID",
    "ShapeChecker",
    "ShapeFact",
    "check_shapes",
]

SHAPE_RULE_ID = "REPRO-SHAPE001"
BUFFER_RULE_ID = "REPRO-SHAPE002"

register_project_check(
    SHAPE_RULE_ID,
    "statically-provable broadcast/shape mismatch",
    """The operand shapes at this numpy op are compile-time constants
that do not broadcast; the expression can only raise (or, worse, be
dead code hiding a logic error).  Fix the shapes — the checker only
reports mismatches it can prove, never symbolic maybes.""",
    example="""a = np.zeros((3, 4))
b = np.ones((2, 4))
c = a + b                    # (3,4) vs (2,4): provably incompatible""",
)

register_project_check(
    BUFFER_RULE_ID,
    "unproven buffer-size obligation at the native kernel boundary",
    """Every pointer handed to sta_kernel.c must provably hold at least
as many elements as the kernel's loop bounds and declared annotations
say it will index; a sizing regression (e.g. dropping the per-thread
factor from the scratch arena) corrupts memory silently instead of
crashing.  Prove the size symbolically (allocate from the same size
expressions the call passes as scalars, pin equalities with asserts) or
suppress with a written justification.""",
    example="""scratch = np.empty(4 * block)          # kernel needs 4*B*T doubles
kernel(rows, ..., pd(scratch), threads)  # threads > 1 overruns""",
)


# ----------------------------------------------------------------------
# Fact domain.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShapeFact:
    """An ndarray value: one :class:`Poly` per dim, plus its allocation
    site (for SHAPE002 chains)."""

    dims: Tuple[Poly, ...]
    origin: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class NumFact:
    """An integer-valued scalar with a known polynomial value."""

    poly: Poly


@dataclass(frozen=True)
class PtrFact:
    """Result of ``x.ctypes.data_as(...)`` — carries the array's fact."""

    array: object


@dataclass(frozen=True)
class OpaqueValue:
    """An unknown value with a stable identity key, so sizes derived
    from the same value (``len(x)`` twice, two listcomps over it) share
    one atom."""

    key: str


@dataclass(frozen=True)
class TupleFact:
    """A tuple literal with known items."""

    items: Tuple[object, ...]


@dataclass(frozen=True)
class ListFact:
    """A list value: symbolic length plus the joined element fact."""

    length: Poly
    element: object


@dataclass(frozen=True)
class FunctionValue:
    """First-class reference to a project function (incl. nested defs)."""

    qualname: str


@dataclass(frozen=True)
class _Singleton:
    label: str


UNKNOWN = _Singleton("unknown")
NONE = _Singleton("none")
SELF = _Singleton("self")
#: The loaded native kernel entry point.  A join with any other value
#: *keeps* it — conservatively, a value that might be the kernel must
#: still satisfy the obligations.
KERNEL = _Singleton("kernel")

Fact = object

#: The project function whose return value is the native kernel.
_KERNEL_LOADER = "repro.timing.native.load_kernel"


@dataclass(frozen=True)
class RawFinding:
    """One shape/buffer failure before being wrapped as a Violation."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    chain: Tuple[Tuple[str, int], ...] = ()


# ----------------------------------------------------------------------
# Whole-program driver.
# ----------------------------------------------------------------------
class ShapeChecker:
    """Two-phase shape analysis over a :class:`ProjectModel`.

    Phase 1 evaluates every top-level function to learn instance
    attribute facts (``self._k_fanin = ...``) and the atom unifications
    their ``assert``s pin; phase 2 re-evaluates with the frozen table
    and collects findings.  Atoms, bounds and unions are global across
    phases — an attribute fact recorded in phase 1 keeps meaning the
    same runtime value when read in phase 2.
    """

    #: Per-root budget of inline callee evaluations; beyond it calls
    #: degrade to opaque results (soundness is unaffected — an opaque
    #: size simply fails to prove and reports).
    INLINE_BUDGET = 200
    #: Maximum inline nesting depth.
    INLINE_DEPTH = 5

    def __init__(self, model: ProjectModel):
        self.model = model
        self._atoms: Dict[Tuple, str] = {}
        self._lower: Dict[str, int] = {}
        self._upper: Dict[str, List[Poly]] = {}
        self._parent: Dict[str, str] = {}
        self._attr_facts: Dict[Tuple[str, str], Fact] = {}
        self._attr_seen: Set[Tuple[str, str]] = set()
        self._module_eval_guard: Set[Tuple[str, str]] = set()
        self._closures: Dict[str, Dict[str, Fact]] = {}
        self._active: Set[str] = set()
        self.findings: List[RawFinding] = []
        self._collect = False
        self._phase = 1
        self._budget = 0
        self._bounds_gen = 0
        self._bounds_cache: Optional[
            Tuple[int, Dict[str, int], Dict[str, List[Poly]]]
        ] = None
        self._kernel_info: Optional[Tuple[Dict, Dict]] = None
        self._kernel_info_loaded = False

    # -- atoms and bounds ----------------------------------------------
    def atom_for(self, key: Tuple) -> Poly:
        """The (deterministically named) size atom for ``key``."""
        name = self._atoms.get(key)
        if name is None:
            name = f"s{len(self._atoms)}"
            self._atoms[key] = name
        return Poly.symbol(name)

    def set_lower(self, poly: Poly, bound: int) -> None:
        """Record ``atom >= bound`` when ``poly`` is a single atom."""
        name = _single_atom(poly)
        if name is not None and bound > self._lower.get(name, 0):
            self._lower[name] = bound
            self._bounds_gen += 1

    def add_upper(self, poly: Poly, bound: Poly) -> None:
        """Record ``atom <= bound`` when ``poly`` is a single atom."""
        name = _single_atom(poly)
        if name is None:
            return
        bounds = self._upper.setdefault(name, [])
        if bound not in bounds:
            bounds.append(bound)
            self._bounds_gen += 1

    def lower_bound(self, poly: Poly) -> Optional[int]:
        lower, _ = self._effective_bounds()
        return poly_lower_bound(self.canon(poly), lower)

    # -- union-find -----------------------------------------------------
    def _find(self, name: str) -> str:
        root = name
        while root in self._parent:
            root = self._parent[root]
        while name != root:
            self._parent[name], name = root, self._parent[name]
        return root

    def unify(self, a: Poly, b: Poly) -> None:
        """Merge the atoms of two single-atom polynomials."""
        na, nb = _single_atom(a), _single_atom(b)
        if na is None or nb is None:
            return
        ra, rb = self._find(na), self._find(nb)
        if ra != rb:
            self._parent[rb] = ra
            self._bounds_gen += 1

    def canon(self, poly: Poly) -> Poly:
        """Rename every atom to its union-find root."""
        mapping = {s: self._find(s) for s in poly.symbols()}
        if all(k == v for k, v in mapping.items()):
            return poly
        return poly.rename(mapping)

    def _effective_bounds(
        self,
    ) -> Tuple[Dict[str, int], Dict[str, List[Poly]]]:
        if (
            self._bounds_cache is not None
            and self._bounds_cache[0] == self._bounds_gen
        ):
            return self._bounds_cache[1], self._bounds_cache[2]
        lower: Dict[str, int] = {}
        for name, bound in self._lower.items():
            root = self._find(name)
            lower[root] = max(lower.get(root, 0), bound)
        upper: Dict[str, List[Poly]] = {}
        for name, bounds in self._upper.items():
            root = self._find(name)
            dest = upper.setdefault(root, [])
            for bound in bounds:
                cb = self.canon(bound)
                if cb not in dest:
                    dest.append(cb)
        self._bounds_cache = (self._bounds_gen, lower, upper)
        return lower, upper

    def prove(self, a: Poly, b: Poly) -> bool:
        """Soundly prove ``a >= b`` under the recorded bounds/unions."""
        lower, upper = self._effective_bounds()
        return prove_ge(self.canon(a), self.canon(b), lower=lower, upper=upper)

    # -- attribute table ------------------------------------------------
    def record_attr(self, class_qualname: str, attr: str, fact: Fact) -> None:
        if self._collect:
            return  # frozen during the checking phase
        key = (class_qualname, attr)
        if key in self._attr_seen:
            self._attr_facts[key] = self.join(
                self._attr_facts[key], fact, key=("attr",) + key
            )
        else:
            self._attr_seen.add(key)
            self._attr_facts[key] = fact

    def attr_fact(self, class_qualname: str, attr: str) -> Fact:
        return self._attr_facts.get((class_qualname, attr), UNKNOWN)

    # -- joins ----------------------------------------------------------
    def join(self, a: Fact, b: Fact, key: Tuple) -> Fact:
        """Least upper bound; fresh atoms are keyed by ``key``."""
        if a == b:
            return a
        if a is NONE:
            return b
        if b is NONE:
            return a
        if a is KERNEL or b is KERNEL:
            return KERNEL
        if isinstance(a, PtrFact) and isinstance(b, PtrFact):
            return PtrFact(self.join(a.array, b.array, key + ("ptr",)))
        if (
            isinstance(a, ShapeFact)
            and isinstance(b, ShapeFact)
            and len(a.dims) == len(b.dims)
        ):
            dims = tuple(
                da
                if self.canon(da) == self.canon(db)
                else self.join_poly(da, db, key + (i,))
                for i, (da, db) in enumerate(zip(a.dims, b.dims))
            )
            origin = a.origin if a.origin == b.origin else None
            return ShapeFact(dims, origin)
        if isinstance(a, NumFact) and isinstance(b, NumFact):
            return NumFact(self.join_poly(a.poly, b.poly, key))
        if isinstance(a, ListFact) and isinstance(b, ListFact):
            return ListFact(
                a.length
                if self.canon(a.length) == self.canon(b.length)
                else self.join_poly(a.length, b.length, key + ("len",)),
                self.join(a.element, b.element, key + ("elem",)),
            )
        return UNKNOWN

    def join_poly(self, a: Poly, b: Poly, key: Tuple) -> Poly:
        """A fresh atom for "either value", keeping the shared lower
        bound (the only bound valid for both sides)."""
        atom = self.atom_for(("join",) + key)
        la, lb = self.lower_bound(a), self.lower_bound(b)
        if la is not None and lb is not None:
            self.set_lower(atom, min(la, lb))
        return atom

    # -- findings -------------------------------------------------------
    def report(self, finding: RawFinding) -> None:
        if self._collect:
            self.findings.append(finding)

    # -- kernel contract data ------------------------------------------
    def kernel_contract(self) -> Optional[Tuple[Dict, Dict]]:
        """(prototypes, obligations) for the native kernel, or ``None``
        when the C source is unavailable (SHAPE002 then stays silent —
        cabi's own check already reports a missing kernel)."""
        if not self._kernel_info_loaded:
            self._kernel_info_loaded = True
            try:
                source = cabi._read_kernel_source(None, None)
                prototypes = cabi.parse_c_prototypes(source)
                obligations = cabi.kernel_buffer_obligations(source)
                self._kernel_info = (prototypes, obligations)
            except (OSError, cabi.UnsupportedDeclarationError, ValueError):
                self._kernel_info = None
        return self._kernel_info

    # -- driver ---------------------------------------------------------
    def run(self) -> List[RawFinding]:
        for phase in (1, 2):
            self._phase = phase
            self._collect = phase == 2
            self._closures.clear()
            for info in self.model.iter_functions():
                if info.enclosing is None:
                    self.analyze_root(info)
        unique = sorted(
            set(self.findings),
            key=lambda f: (f.path, f.line, f.col, f.rule_id, f.message),
        )
        self.findings = unique
        return unique

    def analyze_root(self, info: FunctionInfo) -> None:
        self._budget = self.INLINE_BUDGET
        ctx = f"p{self._phase}:{info.qualname}"
        evaluator = _ShapeEvaluator(self, info, {}, ctx=ctx, depth=0)
        evaluator.run_function(None)

    def module_scope_fact(self, module: ModuleInfo, name: str) -> Fact:
        """Fact of a module-level name (constants, function refs)."""
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
                evaluator = _ShapeEvaluator(
                    self,
                    None,
                    {},
                    ctx=f"p{self._phase}:{module.name}",
                    depth=0,
                    module=module,
                )
                return evaluator.eval(expr)
            finally:
                self._module_eval_guard.discard(guard_key)
        return UNKNOWN


def _single_atom(poly: Poly) -> Optional[str]:
    """The atom name when ``poly`` is exactly one coeff-1 symbol."""
    if len(poly.terms) == 1:
        ((monomial, coeff),) = poly.terms.items()
        if coeff == 1 and len(monomial) == 1:
            return monomial[0]
    return None


def _nonlocal_names(node: ast.AST) -> Set[str]:
    """Names any nested function rebinds via ``nonlocal``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Nonlocal):
            names.update(child.names)
    return names


#: numpy constructors taking a shape as their first argument.
_SHAPE_CONSTRUCTORS = {"empty", "zeros", "ones", "full"}
#: numpy functions whose result keeps the first argument's dims.
_DIM_PRESERVING = {
    "ascontiguousarray",
    "asarray",
    "abs",
    "absolute",
    "exp",
    "log",
    "sqrt",
    "square",
    "copy",
}


class _ShapeEvaluator:
    """Forward shape dataflow over one function body.

    ``ctx`` is the atom-keying context: the root function's qualname,
    extended with ``>line`` per inline call site, so two calls to the
    same helper yield *distinct* size atoms (no spurious equalities),
    while re-evaluating the same chain reproduces the same atoms.
    """

    def __init__(
        self,
        checker: ShapeChecker,
        info: Optional[FunctionInfo],
        closure_env: Dict[str, Fact],
        *,
        ctx: str,
        depth: int,
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
        self.ctx = ctx
        self.depth = depth
        self.env: Dict[str, Fact] = {}
        self.return_facts: List[Fact] = []
        self._globals: Set[str] = set()

    # -- helpers --------------------------------------------------------
    def key(self, node: ast.AST, tag: str = "") -> Tuple:
        return (
            self.ctx,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            tag,
        )

    def atom(self, node: ast.AST, tag: str = "") -> Poly:
        return self.checker.atom_for(self.key(node, tag))

    def as_poly(self, fact: Fact, node: ast.AST, tag: str = "") -> Poly:
        """A polynomial naming ``fact``'s value; opaque values get an
        atom keyed by their identity so repeated uses agree."""
        if isinstance(fact, NumFact):
            return fact.poly
        if isinstance(fact, OpaqueValue):
            return self.checker.atom_for(("opaque", fact.key, "num"))
        return self.atom(node, tag or "num")

    def size_poly(self, fact: ShapeFact) -> Poly:
        total = Poly.const(1)
        for dim in fact.dims:
            total = total * dim
        return total

    # -- entry ----------------------------------------------------------
    def run_function(
        self, args: Optional[List[Fact]], defaults_unknown: bool = True
    ) -> Fact:
        """Bind parameters (actual facts when inlined, opaque parameter
        identities when analyzed standalone) and evaluate the body."""
        assert self.info is not None
        params = self.info.params
        for index, name in enumerate(params):
            if index == 0 and self.info.is_method and name in ("self", "cls"):
                self.env[name] = SELF
                continue
            fact: Fact = None
            if args is not None and index < len(args):
                fact = args[index]
            if fact is None:
                fact = OpaqueValue(f"{self.ctx}:param:{name}")
            self.env[name] = fact
        self.exec_body(self.info.node.body)
        if not self.return_facts:
            return NONE
        result = self.return_facts[0]
        for index, other in enumerate(self.return_facts[1:], start=1):
            result = self.checker.join(
                result, other, key=("ret", self.ctx, index)
            )
        return result

    # -- statements -----------------------------------------------------
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
            update = self.eval(stmt.value)
            self._bind(
                stmt.target, self._binop_fact(current, update, stmt, stmt.op)
            )
        elif isinstance(stmt, ast.Return):
            fact = self.eval(stmt.value) if stmt.value is not None else NONE
            self.return_facts.append(fact)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Assert):
            self._exec_assert(stmt)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_body(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(after_body, self.env, stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(stmt)
            before = dict(self.env)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(before, self.env, stmt)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(before, self.env, stmt)
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
                merged = self._join_envs(merged, branch, stmt)
            self.env = merged
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self.info is not None:
                qual = f"{self.info.qualname}.{stmt.name}"
                if self.checker.model.function(qual) is not None:
                    self.env[stmt.name] = FunctionValue(qual)
                    self.checker._closures[qual] = dict(self.env)
            # A nested function that rebinds outer names via nonlocal
            # invalidates our view of them: downgrade to fresh atoms.
            for name in _nonlocal_names(stmt):
                if name in self.env:
                    self.env[name] = NumFact(self.atom(stmt, f"nonlocal:{name}"))
        elif isinstance(stmt, ast.Global):
            self._globals.update(stmt.names)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)

    def _exec_assert(self, stmt: ast.Assert) -> None:
        """``assert a == b [== c ...]`` over single-atom integer values
        unifies the atoms — the pin mechanism SHAPE002 proofs rely on."""
        test = stmt.test
        self.eval(test)
        if not isinstance(test, ast.Compare):
            return
        if not all(isinstance(op, ast.Eq) for op in test.ops):
            return
        facts = [self.eval(test.left)]
        facts.extend(self.eval(comp) for comp in test.comparators)
        polys = [f.poly for f in facts if isinstance(f, NumFact)]
        if len(polys) != len(facts):
            return
        for other in polys[1:]:
            self.checker.unify(polys[0], other)

    def _bind_loop_target(self, stmt: ast.For) -> None:
        iter_fact = self.eval(stmt.iter)
        node = stmt.iter
        # range(...) / enumerate(...) give the index a non-negative atom.
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "range" and name not in self.env:
                index = NumFact(self.atom(stmt, "range"))
                self.checker.set_lower(index.poly, 0)
                if len(node.args) >= 2:
                    start = self.eval(node.args[0])
                    if isinstance(start, NumFact):
                        lb = self.checker.lower_bound(start.poly)
                        if lb is not None:
                            self.checker.set_lower(index.poly, lb)
                self._bind(stmt.target, index)
                return
            if name == "enumerate" and name not in self.env:
                element: Fact = UNKNOWN
                if node.args:
                    element = self._element_of(self.eval(node.args[0]), stmt)
                index = NumFact(self.atom(stmt, "enum"))
                self.checker.set_lower(index.poly, 0)
                if isinstance(stmt.target, ast.Tuple) and len(
                    stmt.target.elts
                ) == 2:
                    self._bind(stmt.target.elts[0], index)
                    self._bind(stmt.target.elts[1], element)
                else:
                    self._bind(stmt.target, UNKNOWN)
                return
        self._bind(stmt.target, self._element_of(iter_fact, stmt))

    def _element_of(self, fact: Fact, node: ast.AST) -> Fact:
        if isinstance(fact, ListFact):
            return fact.element
        if isinstance(fact, OpaqueValue):
            return OpaqueValue(fact.key + ".elem")
        if isinstance(fact, ShapeFact) and len(fact.dims) > 1:
            return ShapeFact(fact.dims[1:], origin=None)
        if isinstance(fact, TupleFact):
            joined: Fact = NONE
            for index, item in enumerate(fact.items):
                joined = self.checker.join(
                    joined, item, key=self.key(node, f"tupelem{index}")
                )
            return joined if fact.items else UNKNOWN
        return UNKNOWN

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
        elif isinstance(target, ast.Starred):
            self._bind(target.value, UNKNOWN)
        elif isinstance(target, (ast.Tuple, ast.List)):
            items: Optional[Tuple[Fact, ...]] = None
            if isinstance(fact, TupleFact) and len(fact.items) == len(
                target.elts
            ):
                items = fact.items
            for index, element in enumerate(target.elts):
                if items is not None:
                    self._bind(element, items[index])
                elif isinstance(fact, OpaqueValue):
                    self._bind(element, OpaqueValue(f"{fact.key}.{index}"))
                else:
                    self._bind(element, UNKNOWN)
        # subscript stores do not change the container's shape

    def _read_target(self, target: ast.expr) -> Fact:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, UNKNOWN)
        return self.eval(target)

    def _join_envs(
        self, a: Dict[str, Fact], b: Dict[str, Fact], stmt: ast.stmt
    ) -> Dict[str, Fact]:
        merged: Dict[str, Fact] = {}
        line = getattr(stmt, "lineno", 0)
        for key in set(a) | set(b):
            if key in a and key in b:
                merged[key] = self.checker.join(
                    a[key], b[key], key=(self.ctx, "envjoin", line, key)
                )
            else:
                merged[key] = a.get(key, b.get(key, UNKNOWN))
        return merged

    # -- expressions ----------------------------------------------------
    def eval(self, node: ast.expr) -> Fact:
        if isinstance(node, ast.Constant):
            value = node.value
            if value is None:
                return NONE
            if isinstance(value, bool):
                return UNKNOWN
            if isinstance(value, int):
                return NumFact(Poly.const(value))
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._eval_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self._binop_fact(left, right, node, node.op)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.USub) and isinstance(operand, NumFact):
                return NumFact(-operand.poly)
            if isinstance(node.op, ast.UAdd):
                return operand
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.checker.join(
                self.eval(node.body),
                self.eval(node.orelse),
                key=self.key(node, "ifexp"),
            )
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value)
            return UNKNOWN
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comparator in node.comparators:
                self.eval(comparator)
            return UNKNOWN
        if isinstance(node, ast.Tuple):
            return TupleFact(tuple(self.eval(e) for e in node.elts))
        if isinstance(node, ast.List):
            element: Fact = NONE
            for index, item in enumerate(node.elts):
                element = self.checker.join(
                    element, self.eval(item), key=self.key(node, "listelem")
                )
            return ListFact(
                Poly.const(len(node.elts)),
                element if node.elts else UNKNOWN,
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self.eval(gen.iter)
            return UNKNOWN
        if isinstance(node, (ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        return UNKNOWN

    def _eval_comprehension(self, node: ast.expr) -> Fact:
        """``[f(x) for x in it]`` → list of length ``len(it)`` whose
        element fact comes from evaluating the element expression with
        the target bound (single-generator, filter-free lengths are
        exact; filters make the length an upper-bounded fresh atom)."""
        generators = node.generators  # type: ignore[attr-defined]
        gen = generators[0]
        iter_fact = self.eval(gen.iter)
        length = self._length_poly(iter_fact, node)
        if gen.ifs or len(generators) > 1 or isinstance(
            gen.target, ast.Starred
        ):
            filtered = self.atom(node, "complen")
            self.checker.set_lower(filtered, 0)
            self.checker.add_upper(filtered, length)
            length = filtered
        before = dict(self.env)
        try:
            self._bind(gen.target, self._element_of(iter_fact, node))
            for extra in generators[1:]:
                self.eval(extra.iter)
                self._bind(extra.target, UNKNOWN)
            element = self.eval(node.elt)  # type: ignore[attr-defined]
        finally:
            self.env = before
        return ListFact(length, element)

    def _length_poly(self, fact: Fact, node: ast.AST) -> Poly:
        if isinstance(fact, ShapeFact) and fact.dims:
            return fact.dims[0]
        if isinstance(fact, ListFact):
            return fact.length
        if isinstance(fact, TupleFact):
            return Poly.const(len(fact.items))
        if isinstance(fact, OpaqueValue):
            atom = self.checker.atom_for(("opaque", fact.key, "len"))
        else:
            atom = self.atom(node, "len")
        self.checker.set_lower(atom, 0)
        return atom

    def _eval_name(self, name: str) -> Fact:
        if name in self.env and name not in self._globals:
            return self.env[name]
        if name in self.closure_env:
            return self.closure_env[name]
        return self.checker.module_scope_fact(self.module, name)

    def _owner_class(self) -> Optional[str]:
        if self.info is None:
            return None
        return self.checker.model.owner_class(self.info)

    def _eval_attribute(self, node: ast.Attribute) -> Fact:
        base = node.value
        if isinstance(base, ast.Name):
            base_fact = self._eval_name(base.id)
        else:
            base_fact = self.eval(base)
        if base_fact is SELF:
            key = f"self.{node.attr}"
            if key in self.env:
                return self.env[key]
            owner = self._owner_class()
            if owner is not None:
                return self.checker.attr_fact(owner, node.attr)
            return UNKNOWN
        if isinstance(base_fact, ShapeFact):
            if node.attr == "size":
                return NumFact(self.size_poly(base_fact))
            if node.attr == "shape":
                return TupleFact(
                    tuple(NumFact(d) for d in base_fact.dims)
                )
            if node.attr == "ndim":
                return NumFact(Poly.const(len(base_fact.dims)))
            if node.attr == "T":
                return ShapeFact(tuple(reversed(base_fact.dims)), None)
            return UNKNOWN
        if isinstance(base_fact, OpaqueValue):
            return OpaqueValue(f"{base_fact.key}.{node.attr}")
        if isinstance(base_fact, FunctionValue) or base_fact is KERNEL:
            return UNKNOWN
        dotted = _dotted_name(node)
        if dotted is not None:
            target = self.resolver.resolve_target(dotted)
            if target is not None:
                if target == _KERNEL_LOADER:
                    return FunctionValue(target)
                resolved = self.checker.model.lookup_callable(target)
                if resolved is not None:
                    return FunctionValue(resolved)
        return UNKNOWN

    # -- subscripts -----------------------------------------------------
    def _eval_subscript(self, node: ast.Subscript) -> Fact:
        base = self.eval(node.value)
        index = node.slice
        if isinstance(base, TupleFact):
            if isinstance(index, ast.Constant) and isinstance(
                index.value, int
            ):
                if -len(base.items) <= index.value < len(base.items):
                    return base.items[index.value]
            return UNKNOWN
        if isinstance(base, ListFact):
            if isinstance(index, ast.Slice):
                return base
            self.eval(index)
            return base.element
        index_fact = (
            self.eval(index) if not isinstance(index, ast.Slice) else None
        )
        if isinstance(base, OpaqueValue):
            if (
                isinstance(index_fact, ShapeFact)
                and len(index_fact.dims) == 1
            ):
                # packed.k1[gate_ids]: fancy-indexing an unknown 1-d+
                # table with a known 1-d index gathers index-many rows.
                return ShapeFact(index_fact.dims, origin=None)
            if isinstance(index, ast.Slice):
                self._eval_slice_parts(index)
                return OpaqueValue(base.key + "[slice]")
            return OpaqueValue(base.key + "[sub]")
        if not isinstance(base, ShapeFact):
            if isinstance(index, ast.Slice):
                self._eval_slice_parts(index)
            return UNKNOWN
        if isinstance(index, ast.Slice):
            return self._sliced(base, index, node)
        if isinstance(index, ast.Tuple):
            dims: List[Poly] = []
            remaining = list(base.dims)
            for element in index.elts:
                if not remaining:
                    return UNKNOWN
                if isinstance(element, ast.Slice):
                    inner = self._sliced(
                        ShapeFact((remaining.pop(0),), None), element, node
                    )
                    dims.extend(inner.dims)
                else:
                    self.eval(element)
                    remaining.pop(0)
            dims.extend(remaining)
            return ShapeFact(tuple(dims), origin=None)
        if isinstance(index_fact, ShapeFact):
            # Advanced indexing gathers along axis 0.
            return ShapeFact(
                index_fact.dims + base.dims[1:], origin=None
            )
        # Scalar index drops the leading axis.
        if base.dims:
            return (
                ShapeFact(base.dims[1:], origin=None)
                if len(base.dims) > 1
                else NumFact(self.atom(node, "item"))
            )
        return UNKNOWN

    def _eval_slice_parts(self, index: ast.Slice) -> None:
        for part in (index.lower, index.upper, index.step):
            if part is not None:
                self.eval(part)

    def _sliced(
        self, base: ShapeFact, index: ast.Slice, node: ast.AST
    ) -> ShapeFact:
        """``x[a:b]`` along axis 0, preserving provable exactness."""
        if not base.dims:
            return base
        lower = self.eval(index.lower) if index.lower is not None else None
        upper = self.eval(index.upper) if index.upper is not None else None
        if index.step is not None:
            self.eval(index.step)
            dim0 = self.atom(node, "slicestep")
            self.checker.set_lower(dim0, 0)
            return ShapeFact((dim0,) + base.dims[1:], base.origin)
        if lower is None and upper is None:
            return base
        if (
            lower is None
            and isinstance(upper, NumFact)
            and self.checker.prove(base.dims[0], upper.poly)
        ):
            # x[:k] with len(x) >= k provable: the result is exactly k.
            return ShapeFact((upper.poly,) + base.dims[1:], base.origin)
        dim0 = self.atom(node, "slice")
        self.checker.set_lower(dim0, 0)
        self.checker.add_upper(dim0, base.dims[0])
        if isinstance(upper, NumFact):
            if lower is None:
                self.checker.add_upper(dim0, upper.poly)
            elif isinstance(lower, NumFact):
                span = upper.poly - lower.poly
                bound = self.checker.lower_bound(span)
                if bound is not None and bound >= 0:
                    # len(x[a:b]) <= b-a only when b-a is provably >= 0.
                    self.checker.add_upper(dim0, span)
        return ShapeFact((dim0,) + base.dims[1:], base.origin)

    # -- arithmetic / broadcasting --------------------------------------
    def _binop_fact(
        self, left: Fact, right: Fact, node: ast.AST, op: ast.operator
    ) -> Fact:
        if isinstance(left, ShapeFact) or isinstance(right, ShapeFact):
            return self._broadcast(left, right, node)
        # Opaque scalars (bare parameters) participate in arithmetic by
        # their identity atom, so `4 * n` and a later binding of the
        # same `n` agree symbolically.
        if isinstance(left, OpaqueValue) and isinstance(
            right, (NumFact, OpaqueValue)
        ):
            left = NumFact(self.as_poly(left, node, "opl"))
        if isinstance(right, OpaqueValue) and isinstance(left, NumFact):
            right = NumFact(self.as_poly(right, node, "opr"))
        if isinstance(left, NumFact) and isinstance(right, NumFact):
            if isinstance(op, ast.Add):
                return NumFact(left.poly + right.poly)
            if isinstance(op, ast.Sub):
                return NumFact(left.poly - right.poly)
            if isinstance(op, ast.Mult):
                return NumFact(left.poly * right.poly)
            # Division (incl. //) and the rest fall outside the Poly
            # subset: a fresh non-negative atom, no bounds claimed.
            atom = self.atom(node, "arith")
            self.checker.set_lower(atom, 0)
            return NumFact(atom)
        if isinstance(left, ListFact) and isinstance(right, ListFact):
            if isinstance(op, ast.Add):
                return ListFact(
                    left.length + right.length,
                    self.checker.join(
                        left.element,
                        right.element,
                        key=self.key(node, "listcat"),
                    ),
                )
        return UNKNOWN

    def _broadcast(self, left: Fact, right: Fact, node: ast.AST) -> Fact:
        shapes = [f for f in (left, right) if isinstance(f, ShapeFact)]
        if len(shapes) == 1:
            only = shapes[0]
            return ShapeFact(only.dims, origin=None)
        a, b = shapes
        rank = max(len(a.dims), len(b.dims))
        adims = (None,) * (rank - len(a.dims)) + a.dims
        bdims = (None,) * (rank - len(b.dims)) + b.dims
        dims: List[Poly] = []
        for axis in range(rank):
            da, db = adims[axis], bdims[axis]
            if da is None:
                dims.append(db)  # type: ignore[arg-type]
                continue
            if db is None:
                dims.append(da)
                continue
            ca, cb = self.checker.canon(da), self.checker.canon(db)
            if ca == cb:
                dims.append(da)
                continue
            va, vb = ca.constant_value(), cb.constant_value()
            if va == 1:
                dims.append(db)
                continue
            if vb == 1:
                dims.append(da)
                continue
            if va is not None and vb is not None:
                # Both constant, neither 1, unequal: numpy would raise.
                self._report_shape_mismatch(node, a, b)
                dims.append(da)
                continue
            dims.append(self.atom(node, f"bcast{axis}"))
        return ShapeFact(tuple(dims), origin=None)

    def _report_shape_mismatch(
        self, node: ast.AST, a: ShapeFact, b: ShapeFact
    ) -> None:
        if self.info is None:
            return
        render = lambda f: (  # noqa: E731 - local formatter
            "("
            + ", ".join(
                str(d.constant_value())
                if d.constant_value() is not None
                else "?"
                for d in f.dims
            )
            + ("," if len(f.dims) == 1 else "")
            + ")"
        )
        self.checker.report(
            RawFinding(
                path=self.checker.model.module_of(self.info).path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=SHAPE_RULE_ID,
                message=(
                    f"operands with constant shapes {render(a)} and "
                    f"{render(b)} are provably not broadcastable; this "
                    f"expression can only raise at runtime"
                ),
            )
        )

    # -- calls ----------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Fact:
        func = node.func
        # x.ctypes.data_as(ptr): the native pointer hand-off.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "data_as"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "ctypes"
        ):
            for arg in node.args:
                self.eval(arg)
            return PtrFact(self.eval(func.value.value))

        # List mutators invalidate a tracked literal length: ``xs = []``
        # followed by ``xs.append(...)`` in a loop must not keep the
        # constant-0 length (that would make downstream sizes vacuously
        # provable).  Degrade to a fresh unconstrained length atom.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "extend", "insert")
            and isinstance(func.value, ast.Name)
        ):
            bound = self.env.get(
                func.value.id, self.closure_env.get(func.value.id)
            )
            if isinstance(bound, ListFact):
                item: Fact = UNKNOWN
                if node.args:
                    item = self.eval(node.args[-1])
                    if func.attr == "extend":
                        item = self._element_of(item, node)
                length = self.atom(node, "listmut")
                self.checker.set_lower(length, 0)
                self.env[func.value.id] = ListFact(
                    length,
                    self.checker.join(
                        bound.element, item, key=self.key(node, "listel")
                    ),
                )
                return NONE

        if isinstance(func, ast.Attribute):
            method = self._eval_array_method(func, node)
            if method is not None:
                return method

        numpy_name = self._numpy_callee(func)
        if numpy_name is not None:
            return self._eval_numpy_call(numpy_name, node)

        if (
            isinstance(func, ast.Name)
            and func.id not in self.env
            and func.id not in self.closure_env
            and func.id not in self.module.imports
            and self.module.functions.get(func.id) is None
        ):
            builtin = self._eval_builtin(func.id, node)
            if builtin is not None:
                return builtin

        callee_fact: Fact = None
        if isinstance(func, ast.Name):
            callee_fact = self.env.get(
                func.id, self.closure_env.get(func.id)
            )
        if callee_fact is KERNEL:
            self._check_kernel_call(node)
            return NONE

        callee, offset, receiver_self = self._resolve_project_call(func)
        if callee == _KERNEL_LOADER:
            for arg in node.args:
                self.eval(arg)
            return KERNEL
        if isinstance(callee_fact, FunctionValue):
            if callee_fact.qualname == _KERNEL_LOADER:
                return KERNEL
            callee, offset, receiver_self = callee_fact.qualname, 0, False
        if callee is not None and not (
            offset == 1 and not receiver_self  # constructors: see below
        ):
            return self._inline_call(node, callee, offset, receiver_self)
        # Constructors are *not* inlined: __init__ is analyzed standalone
        # in phase 1, and inlining it per construction site would record
        # duplicate attribute facts under different atoms, degrading the
        # very equalities the asserts pin.
        self._eval_call_operands(node)
        return OpaqueValue(f"{self.ctx}:{node.lineno}:{node.col_offset}:call")

    def _eval_call_operands(self, node: ast.Call) -> None:
        for arg in node.args:
            self.eval(arg.value if isinstance(arg, ast.Starred) else arg)
        for keyword in node.keywords:
            if keyword.value is not None:
                self.eval(keyword.value)

    def _eval_array_method(
        self, func: ast.Attribute, node: ast.Call
    ) -> Optional[Fact]:
        attr = func.attr
        if attr not in (
            "astype",
            "copy",
            "reshape",
            "ravel",
            "flatten",
            "view",
            "sum",
            "max",
            "min",
            "mean",
        ):
            return None
        base = self.eval(func.value)
        if not isinstance(base, ShapeFact):
            return None
        self._eval_call_operands(node)
        if attr in ("astype", "copy", "view"):
            return ShapeFact(base.dims, base.origin)
        if attr in ("ravel", "flatten"):
            return ShapeFact((self.size_poly(base),), base.origin)
        if attr == "reshape":
            return self._reshaped(base, node)
        # reductions (sum/max/min/mean): axis-less → scalar; keep it
        # conservative either way.
        return NumFact(self.atom(node, "reduce"))

    def _reshaped(self, base: ShapeFact, node: ast.Call) -> Fact:
        args = node.args
        if len(args) == 1 and isinstance(args[0], ast.Tuple):
            args = args[0].elts
        dims: List[Poly] = []
        const_ok = True
        for index, arg in enumerate(args):
            fact = self.eval(arg)
            if isinstance(fact, NumFact):
                value = fact.poly.constant_value()
                if value is not None and value < 0:
                    # -1 infers a dim: the total is preserved but the
                    # dim itself is data-dependent.
                    dims.append(self.atom(node, f"reshape{index}"))
                    const_ok = False
                else:
                    dims.append(fact.poly)
            else:
                dims.append(self.atom(node, f"reshape{index}"))
                const_ok = False
        if not dims:
            return ShapeFact(base.dims, base.origin)
        result = ShapeFact(tuple(dims), base.origin)
        if const_ok and self.info is not None:
            old = self.size_poly(base).constant_value()
            new = self.size_poly(result).constant_value()
            if old is not None and new is not None and old != new:
                self.checker.report(
                    RawFinding(
                        path=self.checker.model.module_of(self.info).path,
                        line=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0),
                        rule_id=SHAPE_RULE_ID,
                        message=(
                            f"reshape to a constant total of {new} "
                            f"elements from a constant total of {old}; "
                            f"this can only raise at runtime"
                        ),
                    )
                )
        return result

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

    def _shape_from_arg(self, node: ast.Call, position: int) -> Optional[
        Tuple[Poly, ...]
    ]:
        expr: Optional[ast.expr] = None
        for keyword in node.keywords:
            if keyword.arg == "shape":
                expr = keyword.value
        if expr is None and len(node.args) > position:
            expr = node.args[position]
        if expr is None:
            return None
        fact = self.eval(expr)
        if isinstance(fact, NumFact):
            return (fact.poly,)
        if isinstance(fact, OpaqueValue):
            # An opaque scalar (e.g. a bare parameter) names its value by
            # identity, so np.zeros(n) and a later C scalar binding of the
            # same ``n`` share one atom and unify.
            return (self.as_poly(fact, expr, "shapedim"),)
        if isinstance(fact, TupleFact):
            return tuple(
                item.poly
                if isinstance(item, NumFact)
                else self.as_poly(item, expr, f"shapedim{index}")
                for index, item in enumerate(fact.items)
            )
        return None

    def _eval_numpy_call(self, name: str, node: ast.Call) -> Fact:
        origin = (self.checker.model.module_of(self.info).path
                  if self.info is not None else self.module.path)
        if name in _SHAPE_CONSTRUCTORS:
            dims = self._shape_from_arg(node, position=0)
            self._eval_call_operands(node)
            if dims is None:
                return OpaqueValue(
                    f"{self.ctx}:{node.lineno}:{node.col_offset}:np.{name}"
                )
            return ShapeFact(dims, origin=(origin, node.lineno))
        if name in ("empty_like", "zeros_like", "ones_like", "full_like"):
            base = self.eval(node.args[0]) if node.args else UNKNOWN
            self._eval_call_operands(node)
            if isinstance(base, ShapeFact):
                return ShapeFact(base.dims, origin=(origin, node.lineno))
            return UNKNOWN
        if name in ("array", "asarray", "ascontiguousarray"):
            base = self.eval(node.args[0]) if node.args else UNKNOWN
            for keyword in node.keywords:
                if keyword.value is not None:
                    self.eval(keyword.value)
            if isinstance(base, ShapeFact):
                return base
            if isinstance(base, ListFact):
                element = base.element
                if isinstance(element, ShapeFact):
                    return ShapeFact(
                        (base.length,) + element.dims,
                        origin=(origin, node.lineno),
                    )
                return ShapeFact(
                    (base.length,), origin=(origin, node.lineno)
                )
            if isinstance(base, TupleFact):
                return ShapeFact(
                    (Poly.const(len(base.items)),),
                    origin=(origin, node.lineno),
                )
            return UNKNOWN
        if name == "arange":
            facts = [self.eval(a) for a in node.args]
            if len(facts) == 1 and isinstance(facts[0], NumFact):
                return ShapeFact(
                    (facts[0].poly,), origin=(origin, node.lineno)
                )
            atom = self.atom(node, "arange")
            self.checker.set_lower(atom, 0)
            return ShapeFact((atom,), origin=(origin, node.lineno))
        if name == "concatenate":
            base = self.eval(node.args[0]) if node.args else UNKNOWN
            for keyword in node.keywords:
                if keyword.value is not None:
                    self.eval(keyword.value)
            if isinstance(base, TupleFact) and all(
                isinstance(i, ShapeFact) and len(i.dims) == 1
                for i in base.items
            ):
                total = Poly.const(0)
                for item in base.items:
                    total = total + item.dims[0]  # type: ignore[union-attr]
                return ShapeFact((total,), origin=(origin, node.lineno))
            # A list of arrays (even with a known symbolic length) yields
            # a fresh atom rather than ``length * element`` — the per-item
            # lengths generally differ, and a single atom is what the
            # assert-pins in ``timing/compiled.py`` can unify against.
            atom = self.atom(node, "concat")
            self.checker.set_lower(atom, 0)
            return ShapeFact((atom,), origin=(origin, node.lineno))
        if name == "bincount":
            self._eval_call_operands(node)
            atom = self.atom(node, "bincount")
            self.checker.set_lower(atom, 0)
            return ShapeFact((atom,), origin=(origin, node.lineno))
        if name in ("multiply", "add", "subtract", "divide", "true_divide",
                    "maximum", "minimum", "take", "max", "min"):
            out: Fact = None
            facts = [self.eval(a) for a in node.args]
            for keyword in node.keywords:
                if keyword.value is not None:
                    fact = self.eval(keyword.value)
                    if keyword.arg == "out":
                        out = fact
            if out is not None:
                return out
            arrays = [f for f in facts if isinstance(f, ShapeFact)]
            if name in ("take", "max", "min"):
                return UNKNOWN
            if len(arrays) == 2:
                return self._broadcast(arrays[0], arrays[1], node)
            if len(arrays) == 1:
                return ShapeFact(arrays[0].dims, origin=None)
            return UNKNOWN
        if name in _DIM_PRESERVING:
            base = self.eval(node.args[0]) if node.args else UNKNOWN
            for keyword in node.keywords:
                if keyword.value is not None:
                    self.eval(keyword.value)
            if isinstance(base, ShapeFact):
                return ShapeFact(base.dims, base.origin)
            return UNKNOWN
        self._eval_call_operands(node)
        return UNKNOWN

    def _eval_builtin(self, name: str, node: ast.Call) -> Optional[Fact]:
        if name == "len":
            if len(node.args) == 1:
                return NumFact(
                    self._length_poly(self.eval(node.args[0]), node)
                )
            return NumFact(self.atom(node, "len"))
        if name in ("int", "round"):
            if len(node.args) >= 1:
                fact = self.eval(node.args[0])
                if isinstance(fact, NumFact):
                    return fact
            atom = self.atom(node, "int")
            self.checker.set_lower(atom, 0)
            return NumFact(atom)
        if name == "min" and len(node.args) >= 2:
            polys = [
                self.as_poly(self.eval(arg), arg, f"minarg{i}")
                for i, arg in enumerate(node.args)
            ]
            atom = self.atom(node, "min")
            self.checker.set_lower(atom, 0)
            for poly in polys:
                self.checker.add_upper(atom, poly)
            bounds = [self.checker.lower_bound(p) for p in polys]
            if all(b is not None for b in bounds):
                self.checker.set_lower(atom, min(bounds))  # type: ignore[type-var]
            return NumFact(atom)
        if name == "max" and len(node.args) >= 2:
            polys = [
                self.as_poly(self.eval(arg), arg, f"maxarg{i}")
                for i, arg in enumerate(node.args)
            ]
            atom = self.atom(node, "max")
            # max(...) >= every argument's lower bound.
            for poly in polys:
                bound = self.checker.lower_bound(poly)
                if bound is not None:
                    self.checker.set_lower(atom, bound)
            return NumFact(atom)
        if name in ("min", "max", "sum", "abs"):
            self._eval_call_operands(node)
            atom = self.atom(node, name)
            self.checker.set_lower(atom, 0)
            return NumFact(atom)
        if name in ("list", "tuple", "sorted"):
            if len(node.args) == 1:
                fact = self.eval(node.args[0])
                if isinstance(fact, (ListFact, TupleFact)):
                    return fact
                return ListFact(
                    self._length_poly(fact, node),
                    self._element_of(fact, node),
                )
            return UNKNOWN
        if name in ("float", "bool", "str", "print", "isinstance",
                    "range", "enumerate", "zip", "dict", "set",
                    "getattr", "hasattr", "repr", "vars", "id"):
            self._eval_call_operands(node)
            return UNKNOWN
        return None

    # -- interprocedural glue -------------------------------------------
    def _resolve_project_call(
        self, func: ast.expr
    ) -> Tuple[Optional[str], int, bool]:
        """(callee qualname, param offset, receiver-is-self)."""
        model = self.checker.model
        if isinstance(func, ast.Name):
            bound = self.env.get(func.id, self.closure_env.get(func.id))
            if isinstance(bound, FunctionValue):
                return bound.qualname, 0, False
            if func.id in self.env or func.id in self.closure_env:
                return None, 0, False
            target = self.resolver.resolve_target(func.id)
            if target is not None:
                if target == _KERNEL_LOADER:
                    return target, 0, False
                callee = model.lookup_callable(target)
                if callee is not None:
                    offset = 1 if model.class_of_callable(target) else 0
                    return callee, offset, False
            return None, 0, False
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and self._eval_name(base.id) is SELF:
                owner = self._owner_class()
                if owner is not None:
                    klass = model.classes.get(owner)
                    if klass is not None:
                        method = klass.methods.get(func.attr)
                        if method is not None:
                            return method, 1, True
                return None, 0, False
            dotted = _dotted_name(func)
            if dotted is not None:
                target = self.resolver.resolve_target(dotted)
                if target is not None:
                    if target == _KERNEL_LOADER:
                        return target, 0, False
                    callee = model.lookup_callable(target)
                    if callee is not None:
                        offset = 1 if model.class_of_callable(target) else 0
                        return callee, offset, False
        return None, 0, False

    def _inline_call(
        self, node: ast.Call, callee: str, offset: int, receiver_self: bool
    ) -> Fact:
        checker = self.checker
        info = checker.model.function(callee)
        opaque = OpaqueValue(
            f"{self.ctx}:{node.lineno}:{node.col_offset}:call"
        )
        if (
            info is None
            or self.depth >= checker.INLINE_DEPTH
            or checker._budget <= 0
            or callee in checker._active
        ):
            self._eval_call_operands(node)
            return opaque
        checker._budget -= 1
        args: List[Optional[Fact]] = [None] * len(info.params)
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                fact = self.eval(arg.value)
                if isinstance(fact, TupleFact):
                    for extra, item in enumerate(fact.items):
                        index = position + offset + extra
                        if index < len(args):
                            args[index] = item
                break  # arity past a star is uncertain; rest stay opaque
            index = position + offset
            fact = self.eval(arg)
            if index < len(args):
                args[index] = fact
        for keyword in node.keywords:
            if keyword.value is None:
                continue
            fact = self.eval(keyword.value)
            if keyword.arg in info.params:
                args[info.params.index(keyword.arg)] = fact
        child_ctx = f"{self.ctx}>{node.lineno}"
        closure = checker._closures.get(callee, {})
        checker._active.add(callee)
        try:
            child = _ShapeEvaluator(
                checker,
                info,
                closure,
                ctx=child_ctx,
                depth=self.depth + 1,
            )
            return child.run_function(args)
        finally:
            checker._active.discard(callee)

    # -- the native-boundary contract -----------------------------------
    def _check_kernel_call(self, node: ast.Call) -> None:
        args: List[Tuple[Fact, ast.AST]] = [
            (self.eval(arg), arg) for arg in node.args
        ]
        for keyword in node.keywords:
            if keyword.value is not None:
                self.eval(keyword.value)
        contract = self.checker.kernel_contract()
        if contract is None or self.info is None:
            return
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            return  # unknown arity: nothing checkable
        prototypes, obligations = contract
        from repro.timing import native

        fn = native.KERNEL_FUNCTION
        prototype = prototypes.get(fn)
        if prototype is None or len(args) != len(prototype.parameters):
            return
        self._check_kernel_args(
            node, fn, prototype, obligations.get(fn, {}), args
        )

    def _lookup_symbol(self, name: str) -> Optional[Poly]:
        fact = self.env.get(name, self.closure_env.get(name))
        if fact is None:
            return None
        if isinstance(fact, NumFact):
            return fact.poly
        if isinstance(fact, OpaqueValue):
            return self.checker.atom_for(("opaque", fact.key, "num"))
        return None

    def _check_kernel_args(
        self,
        node: ast.Call,
        fn: str,
        prototype: "cabi.CPrototype",
        obligations: Dict[str, "cabi.BufferObligation"],
        args: List[Tuple[Fact, ast.AST]],
    ) -> None:
        assert self.info is not None
        path = self.checker.model.module_of(self.info).path
        sigma: Dict[str, Poly] = {}
        for index, param in enumerate(prototype.parameters):
            if param.pointer_depth == 0 and param.name:
                fact, argnode = args[index]
                sigma[param.name] = self.as_poly(
                    fact, argnode, f"carg:{fn}:{param.name}"
                )

        def report(
            message: str,
            line: int,
            col: int,
            chain: Tuple[Tuple[str, int], ...] = (),
        ) -> None:
            self.checker.report(
                RawFinding(
                    path=path,
                    line=line,
                    col=col,
                    rule_id=BUFFER_RULE_ID,
                    message=message,
                    chain=chain,
                )
            )

        for index, param in enumerate(prototype.parameters):
            if param.pointer_depth == 0 or not param.name:
                continue
            fact, argnode = args[index]
            line = getattr(argnode, "lineno", node.lineno)
            col = getattr(argnode, "col_offset", node.col_offset)
            if fact is NONE:
                continue  # explicit NULL: the kernel guards for it
            array = fact.array if isinstance(fact, PtrFact) else None
            if array is NONE:
                continue
            obligation = obligations.get(param.name)
            if obligation is None or obligation.extent is None:
                reason = (
                    obligation.reason
                    if obligation is not None and obligation.reason
                    else "parameter not found in sta_kernel.c"
                )
                report(
                    f"buffer obligation for '{param.name}' of {fn}() is "
                    f"not statically derivable from sta_kernel.c "
                    f"({reason}); verify the sizing by hand and suppress "
                    f"with a justification",
                    line,
                    col,
                )
                continue
            if not isinstance(array, ShapeFact):
                report(
                    f"pointer argument '{param.name}' of {fn}() carries "
                    f"no symbolic size (required extent: "
                    f"{obligation.extent}); allocate it through a "
                    f"tracked numpy constructor or suppress with a "
                    f"justification",
                    line,
                    col,
                )
                continue
            extent = parse_expr(obligation.extent)
            unbound: Optional[str] = None
            for symbol in extent.symbols():
                if symbol in sigma:
                    extent = extent.substitute(symbol, sigma[symbol])
                    continue
                local = self._lookup_symbol(symbol)
                if local is not None:
                    extent = extent.substitute(symbol, local)
                    continue
                unbound = symbol
                break
            if unbound is not None:
                report(
                    f"required extent {obligation.extent!r} for "
                    f"'{param.name}' of {fn}() references {unbound!r}, "
                    f"which is neither a kernel scalar argument nor a "
                    f"local at the call site; bind it or suppress with "
                    f"a justification",
                    line,
                    col,
                )
                continue
            size = self.size_poly(array)
            if not self.checker.prove(size, extent):
                origin = array.origin
                message = (
                    f"cannot prove the buffer passed for "
                    f"'{param.name}' of {fn}() holds the required "
                    f"{obligation.extent} elements "
                    f"({obligation.basis}); pin the allocation size to "
                    f"the call's size expressions or suppress with a "
                    f"justification"
                )
                if origin is not None:
                    # Primary location at the allocation site (that is
                    # where the fix goes), chained to the call site.
                    self.checker.report(
                        RawFinding(
                            path=origin[0],
                            line=origin[1],
                            col=0,
                            rule_id=BUFFER_RULE_ID,
                            message=message,
                            chain=((path, line),),
                        )
                    )
                else:
                    report(message, line, col)


def check_shapes(model: ProjectModel) -> List[Violation]:
    """Run the REPRO-SHAPE001/002 analyses over a project model."""
    checker = ShapeChecker(model)
    return [
        Violation(
            path=finding.path,
            line=finding.line,
            col=finding.col,
            rule_id=finding.rule_id,
            message=finding.message,
            chain=finding.chain,
        )
        for finding in checker.run()
    ]
