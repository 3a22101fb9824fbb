"""Project-specific lint rules enforcing the repo's reproducibility
disciplines.

Each rule guards an invariant the test suite can only probe pointwise:

========== ==========================================================
REPRO-RNG001   no legacy ``np.random.*`` global-state calls
REPRO-CACHE001 no in-place mutation of arrays loaded from the
               artifact/KLE cache
REPRO-FLOAT001 no ``==`` / ``!=`` against float literals
REPRO-DEF001   no mutable default arguments
REPRO-EXC001   no bare or blanket ``except`` without re-raise
REPRO-TIME001  no wall-clock reads inside cache-key/hash construction
REPRO-PERF001  no per-iteration array allocation in hot-module loops
========== ==========================================================

Intentional exceptions are annotated in place with
``# repro-lint: disable=RULE`` so the codebase documents *why* each
deviation is sound; the self-lint test
(``tests/analysis/test_self_lint.py``) keeps ``src/repro`` clean.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.engine import (
    FileContext,
    Rule,
    Violation,
    register_rule,
)

__all__ = [
    "BroadExceptRule",
    "CacheMutationRule",
    "FloatEqualityRule",
    "LegacyNumpyRandomRule",
    "LoopAllocationRule",
    "MutableDefaultRule",
    "WallClockInKeyRule",
]

AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render an ``a.b.c`` attribute/name chain, or ``None`` if not one."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# RNG discipline
# ----------------------------------------------------------------------

#: ``numpy.random`` module-level functions backed by hidden global state
#: (the legacy ``RandomState`` singleton).  Everything here defeats seed
#: threading: two call sites interleave one stream, and reordering any
#: code silently changes every downstream draw.
LEGACY_NP_RANDOM = frozenset(
    {
        "RandomState",
        "beta",
        "binomial",
        "choice",
        "exponential",
        "gamma",
        "get_state",
        "lognormal",
        "multivariate_normal",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)


@register_rule
class LegacyNumpyRandomRule(Rule):
    """Ban the legacy global-state ``numpy.random`` API."""

    id = "REPRO-RNG001"
    title = "legacy np.random.* global-state call"
    rationale = """The module-level numpy.random functions share one hidden
    RandomState; they make results depend on call order across the whole
    process and cannot be threaded through repro.utils.rng.  Use
    repro.utils.rng.as_generator / spawn_generators instead."""
    example = "noise = np.random.normal(size=n)   # hidden global stream"
    interests = (ast.Attribute, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        if isinstance(node, ast.ImportFrom):
            if node.module not in ("numpy.random", "numpy.random.mtrand"):
                return ()
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in LEGACY_NP_RANDOM
            )
            if not bad:
                return ()
            return [
                self.violation(
                    ctx,
                    node,
                    f"importing legacy global-state numpy.random "
                    f"name(s) {', '.join(bad)}; thread a Generator from "
                    f"repro.utils.rng instead",
                )
            ]
        assert isinstance(node, ast.Attribute)
        if node.attr not in LEGACY_NP_RANDOM:
            return ()
        dotted = _dotted_name(node)
        if dotted is None:
            return ()
        prefix, _, _ = dotted.rpartition(".")
        if prefix not in ("np.random", "numpy.random"):
            return ()
        return [
            self.violation(
                ctx,
                node,
                f"{dotted} uses numpy's hidden global RandomState; "
                f"thread a Generator from repro.utils.rng instead",
            )
        ]


# The old per-file REPRO-RNG002 ("no unseeded default_rng()") lived here;
# it is subsumed by the interprocedural seed-flow pass (REPRO-SEED001 in
# repro.analysis.seedflow), which also catches the same construction when
# the entropy arrives through a helper call rather than a literal
# ``default_rng()`` spelling.


# ----------------------------------------------------------------------
# Cache immutability
# ----------------------------------------------------------------------

#: ndarray methods that mutate in place.
_MUTATING_METHODS = frozenset(
    {
        "fill",
        "itemset",
        "partition",
        "put",
        "resize",
        "setfield",
        "setflags",
        "sort",
    }
)

#: Cache-read entry points; a name bound to one of these calls holds
#: arrays that must be treated as immutable.
_CACHE_READ_FUNCS = frozenset({"read_artifact"})
_CACHE_READ_METHODS = frozenset({"load", "get_or_create"})


def _is_cache_read(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _CACHE_READ_FUNCS
    if isinstance(func, ast.Attribute) and func.attr in _CACHE_READ_METHODS:
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return "cache" in receiver.id.lower()
        if isinstance(receiver, ast.Attribute):
            return "cache" in receiver.attr.lower()
        if isinstance(receiver, ast.Call):
            dotted = _dotted_name(receiver.func)
            return dotted is not None and "cache" in dotted.lower()
    return False


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` under a chain of subscripts/attributes."""
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


class _CacheScopeVisitor(ast.NodeVisitor):
    """Track cache-loaded bindings per lexical scope, in document order."""

    def __init__(self, rule: "CacheMutationRule", ctx: FileContext):
        self.rule = rule
        self.ctx = ctx
        self.scopes: List[Set[str]] = [set()]
        self.found: List[Violation] = []

    # -- scope management ----------------------------------------------
    def _tracked(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _untrack(self, name: str) -> None:
        for scope in self.scopes:
            scope.discard(name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def _visit_scope(self, node: AnyFunctionDef) -> None:
        self.scopes.append(set())
        self.generic_visit(node)
        self.scopes.pop()

    # -- binding -------------------------------------------------------
    def _value_is_cache_data(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Call) and _is_cache_read(value):
            return True
        # arr = cached["key"] — a view into a tracked mapping.
        if isinstance(value, ast.Subscript):
            root = _root_name(value)
            return root is not None and self._tracked(root)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        is_cache = self._value_is_cache_data(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_cache:
                    self.scopes[-1].add(target.id)
                else:
                    self._untrack(target.id)
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                self._flag_write(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if node.value is not None and self._value_is_cache_data(node.value):
                self.scopes[-1].add(node.target.id)
            else:
                self._untrack(node.target.id)
        elif isinstance(node.target, (ast.Subscript, ast.Attribute)):
            self._flag_write(node.target, node)
        self.generic_visit(node)

    # -- mutation detection --------------------------------------------
    def _flag_write(self, target: ast.AST, node: ast.AST) -> None:
        root = _root_name(target)
        if root is not None and self._tracked(root):
            self.found.append(
                self.rule.violation(
                    self.ctx,
                    node,
                    f"in-place write to {root!r}, which was loaded from the "
                    f"artifact cache; cached arrays are shared and "
                    f"checksummed — work on a copy (np.array(...) / .copy())",
                )
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            self._flag_write(target, node)
        elif isinstance(target, ast.Name) and self._tracked(target.id):
            self.found.append(
                self.rule.violation(
                    self.ctx,
                    node,
                    f"augmented assignment to cache-loaded {target.id!r} "
                    f"may mutate the cached array in place; "
                    f"work on a copy",
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
        ):
            root = _root_name(func.value)
            if root is not None and self._tracked(root):
                self.found.append(
                    self.rule.violation(
                        self.ctx,
                        node,
                        f"{root}.{func.attr}(...) mutates a cache-loaded "
                        f"array in place; work on a copy",
                    )
                )
        self.generic_visit(node)


@register_rule
class CacheMutationRule(Rule):
    """Detect in-place writes to arrays read from the artifact cache."""

    id = "REPRO-CACHE001"
    title = "in-place mutation of cache-loaded arrays"
    rationale = """Arrays returned by repro.utils.artifact_cache (and the
    KLE disk cache built on it) are marked read-only and may be shared
    between consumers; mutating them corrupts every later reader and
    desynchronizes the in-memory copy from the checksummed bytes on
    disk.  This rule catches the pattern statically: subscript/attribute
    stores, augmented assignment, and mutating ndarray methods on names
    bound from cache.load(...) / cache.get_or_create(...) /
    read_artifact(...)."""
    example = """arrays = cache.load(key, required_keys=("eigenvalues",))
arrays["eigenvalues"] *= scale     # mutates the shared cached array"""
    interests = ()

    def finish_file(self, ctx: FileContext) -> Iterable[Violation]:
        visitor = _CacheScopeVisitor(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.found


# ----------------------------------------------------------------------
# Numeric and API hygiene
# ----------------------------------------------------------------------
@register_rule
class FloatEqualityRule(Rule):
    """Flag ``==`` / ``!=`` comparisons against float literals."""

    id = "REPRO-FLOAT001"
    title = "float literal compared with == / !="
    rationale = """Exact equality against a float literal is almost always
    a rounding bug waiting to happen (use math.isclose / np.isclose or a
    tolerance).  The deliberate exceptions — exact-zero sentinels on
    values that are assigned, never computed — stay, but must carry an
    inline suppression explaining themselves."""
    example = "if delay == 0.125:                 # rounding-fragile"
    interests = (ast.Compare,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.Compare)
        found: List[Violation] = []
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands[:-1], operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, float
                ):
                    found.append(
                        self.violation(
                            ctx,
                            node,
                            f"comparison with float literal "
                            f"{side.value!r} using "
                            f"{'==' if isinstance(op, ast.Eq) else '!='}; "
                            f"use a tolerance (np.isclose) or suppress "
                            f"with a justification if the value is an "
                            f"exact sentinel",
                        )
                    )
                    break
        return found


_MUTABLE_DEFAULT_CALLS = frozenset({"list", "dict", "set", "bytearray"})


@register_rule
class MutableDefaultRule(Rule):
    """Flag mutable default argument values."""

    id = "REPRO-DEF001"
    title = "mutable default argument"
    rationale = """Default values are evaluated once at definition time, so
    a list/dict/set default is shared across calls — state leaks between
    invocations.  Use None and construct inside the body."""
    example = "def run(circuit, results=[]):      # shared across calls"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(
            default,
            (
                ast.List,
                ast.Dict,
                ast.Set,
                ast.ListComp,
                ast.DictComp,
                ast.SetComp,
            ),
        ):
            return True
        return (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in _MUTABLE_DEFAULT_CALLS
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        args = node.args  # type: ignore[attr-defined]
        found: List[Violation] = []
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                label = getattr(node, "name", "<lambda>")
                found.append(
                    self.violation(
                        ctx,
                        default,
                        f"mutable default argument in {label}(); defaults "
                        f"are evaluated once and shared across calls — "
                        f"use None and build inside the body",
                    )
                )
        return found


_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _exception_names(node: Optional[ast.AST]) -> List[str]:
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        names: List[str] = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    dotted = _dotted_name(node)
    return [dotted] if dotted is not None else []


@register_rule
class BroadExceptRule(Rule):
    """Flag bare ``except:`` and blanket ``except Exception`` handlers."""

    id = "REPRO-EXC001"
    title = "bare or blanket except without re-raise"
    rationale = """A handler that swallows Exception (or everything) hides
    the numerical-drift failures this pipeline is most prone to: a KLE
    solve or cache decode that dies silently degrades results instead of
    crashing.  Catch the specific errors a block can raise; a blanket
    handler is only acceptable when it re-raises."""
    example = """try:
    result = solver.solve(num_eigenpairs=r)
except Exception:                  # swallows the drift you care about
    result = None"""
    interests = (ast.ExceptHandler,)

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(child, ast.Raise)
            for body_node in handler.body
            for child in ast.walk(body_node)
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            if self._reraises(node):
                return ()
            return [
                self.violation(
                    ctx,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "name the exceptions this block can actually raise",
                )
            ]
        broad = [
            name
            for name in _exception_names(node.type)
            if name.rpartition(".")[2] in _BROAD_EXCEPTION_NAMES
        ]
        if not broad or self._reraises(node):
            return ()
        return [
            self.violation(
                ctx,
                node,
                f"blanket except {', '.join(broad)} without re-raise "
                f"swallows unrelated failures; catch the specific "
                f"exceptions or re-raise",
            )
        ]


# ----------------------------------------------------------------------
# Cache-key purity
# ----------------------------------------------------------------------

#: Dotted call suffixes that read the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)

_KEY_FUNCTION_NAME = re.compile(r"key|hash|digest|fingerprint", re.IGNORECASE)


@register_rule
class WallClockInKeyRule(Rule):
    """Flag wall-clock reads inside cache-key / hash construction."""

    id = "REPRO-TIME001"
    title = "wall-clock call in cache-key/hash construction"
    rationale = """A cache key or content hash that folds in time.time() /
    datetime.now() never matches on reload, silently turning every warm
    cache into a 0% hit rate (or worse, an always-stale one).  Keys must
    be pure functions of the artifact's inputs.  Flags wall-clock calls
    lexically inside functions whose name says key/hash/digest/
    fingerprint, and wall-clock results fed directly into hashlib."""
    example = 'def cache_key(name):\n    return f"{name}-{time.time()}"'
    interests = (ast.Call,)

    def _is_wall_clock(self, node: ast.Call) -> Optional[str]:
        dotted = _dotted_name(node.func)
        if dotted is None:
            return None
        for suffix in _WALL_CLOCK_CALLS:
            if dotted == suffix or dotted.endswith("." + suffix):
                return dotted
        return None

    def _feeds_hashlib(self, node: ast.Call, ctx: FileContext) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.Call):
                dotted = _dotted_name(ancestor.func) or ""
                if dotted.startswith("hashlib."):
                    return True
                if isinstance(ancestor.func, ast.Attribute) and (
                    ancestor.func.attr == "update"
                ):
                    return True
        return False

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        dotted = self._is_wall_clock(node)
        if dotted is None:
            return ()
        in_key_function = any(
            _KEY_FUNCTION_NAME.search(fn.name)
            for fn in ctx.enclosing_functions(node)
        )
        if not in_key_function and not self._feeds_hashlib(node, ctx):
            return ()
        return [
            self.violation(
                ctx,
                node,
                f"{dotted}() inside cache-key/hash construction makes the "
                f"key time-dependent — it will never match on reload; "
                f"keys must be pure functions of the inputs",
            )
        ]


# ----------------------------------------------------------------------
# Hot-loop allocation hygiene
# ----------------------------------------------------------------------

#: numpy constructors that allocate a fresh array per call.
_ALLOCATING_NUMPY = frozenset({"zeros", "empty", "concatenate"})

#: Path segments marking modules on the per-sample / per-iteration hot
#: path, where an O(iterations) allocation rate shows up directly in the
#: benchmark suite.
_HOT_SEGMENTS = frozenset({"timing", "mlmc", "solvers"})


def _in_hot_module(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(seg in normalized.split("/") for seg in _HOT_SEGMENTS)


@register_rule
class LoopAllocationRule(Rule):
    """Flag per-iteration array allocations in hot-module loops."""

    id = "REPRO-PERF001"
    title = "array allocation inside a hot-module loop"
    rationale = """np.zeros/np.empty/np.concatenate (and .astype, which
    copies) allocate a fresh buffer every call; inside a for/while loop
    in the per-sample hot path (timing/, mlmc/, solvers/) that turns an
    O(1) working set into O(iterations) allocator traffic and defeats
    the preallocated-arena discipline the native kernel relies on.
    Hoist the allocation out of the loop and reuse the buffer (e.g. the
    ufunc ``out=`` argument), or suppress with a justification when the
    loop is cold (setup/pack time, not per-sample)."""
    example = """for start in range(0, n, block):
    u = np.zeros((block, num_gates))   # fresh buffer every block"""
    interests = (ast.Call,)

    def _allocating_callee(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            return ".astype"
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        prefix, _, name = dotted.rpartition(".")
        if prefix in ("np", "numpy") and name in _ALLOCATING_NUMPY:
            return dotted
        return None

    def _enclosing_loop(
        self, node: ast.Call, ctx: FileContext
    ) -> Optional[Union[ast.For, ast.While]]:
        """The innermost for/while containing ``node`` within the same
        function scope (a nested def/lambda re-establishes O(1))."""
        for ancestor in ctx.ancestors(node):
            if isinstance(
                ancestor,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                return None
            if isinstance(ancestor, (ast.For, ast.While)):
                return ancestor
        return None

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        if not _in_hot_module(ctx.path):
            return ()
        callee = self._allocating_callee(node)
        if callee is None:
            return ()
        loop = self._enclosing_loop(node, ctx)
        if loop is None:
            return ()
        kind = "for" if isinstance(loop, ast.For) else "while"
        return [
            self.violation(
                ctx,
                node,
                f"{callee}(...) allocates a fresh array on every "
                f"iteration of the enclosing {kind} loop (line "
                f"{loop.lineno}); hoist the allocation and reuse the "
                f"buffer, or suppress with a justification if this loop "
                f"is not on the per-sample hot path",
            )
        ]
