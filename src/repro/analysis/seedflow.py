"""Interprocedural seed-flow taint analysis (REPRO-SEED001/002).

The library's determinism contract says every RNG stream descends from
an *explicit* seed: an integer, a :class:`numpy.random.SeedSequence`, or
a child spawned through :func:`repro.utils.rng.spawn_seed_sequences`.
Two whole-program properties follow, and this pass proves both over the
:class:`~repro.analysis.project.ProjectModel` call graph:

- **REPRO-SEED001 — no entropy-seeded streams.**  A ``default_rng()`` /
  ``SeedSequence()`` construction with no seed (or ``None``) draws fresh
  OS entropy; so does seeding one from wall-clock time, ``os.urandom``,
  ``uuid4()``, ``id()`` or ``hash()``.  The taint may arrive through
  helpers — ``make_rng(time.time_ns())`` three calls above the actual
  ``default_rng`` — so the pass computes per-function summaries
  (*returns entropy*, *parameter reaches a seed sink*) to a fixpoint
  and reports the call site where entropy enters, with a chain to the
  sink it reaches.  This subsumes the retired per-file REPRO-RNG002.

- **REPRO-SEED002 — no stream aliasing.**  Seeding two generators from
  the *same* seed value produces bitwise-identical "independent"
  streams, silently correlating every sample drawn from them.  A seed
  may be consumed once; forks must go through ``SeedSequence.spawn`` /
  ``spawn_seed_sequences``.  The pass counts seed-typed names passed
  *bare* into seed-consuming calls (numpy constructors or project
  functions whose parameter transitively reaches one) and flags the
  second consumption, chain-linked to the first.  Guard-style
  ``if ...: return`` dispatch and ``if``/``else`` arms are recognized
  as mutually exclusive, so normalization helpers don't false-positive.

Sources of *trust* (never tainted): explicit integer literals, function
parameters (a parameter is the caller's problem), and anything already
normalized by ``repro.utils.rng``.  ``spawn_seed_sequences(None, n)``
stays sanctioned: a constant ``None`` is not entropy at the call site —
the helper owns the one blessed unseeded path.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Violation, register_project_check
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Resolver,
    _dotted_name,
)

__all__ = [
    "SEED_SOURCE_RULE_ID",
    "SEED_FORK_RULE_ID",
    "check_seed_flow",
    "sink_sites",
]

SEED_SOURCE_RULE_ID = "REPRO-SEED001"
SEED_FORK_RULE_ID = "REPRO-SEED002"

_SOURCE_TITLE = "RNG stream constructed from entropy"
_SOURCE_RATIONALE = """A generator or SeedSequence built without an explicit
seed (or seeded from time, os.urandom, uuid, id() or hash()) draws fresh
OS entropy, so the run cannot be reproduced and no regression can pin
its outputs.  Every stream must descend from an explicit seed, normally
via repro.utils.rng (spawn_seed_sequences owns the one sanctioned
None-handling path).  The taint is tracked through helper calls, so
hiding the entropy behind a function does not help."""
_SOURCE_EXAMPLE = """rng = np.random.default_rng()           # fresh OS entropy
gen = make_generator(time.time_ns())    # entropy through a helper"""

_FORK_TITLE = "seed consumed by two streams without a spawn"
_FORK_RATIONALE = """Seeding two generators from the same seed value yields
bitwise-identical streams: samples that look independent are perfectly
correlated, which biases every Monte Carlo estimate built on them.  A
seed may seed at most one stream; derive siblings with
SeedSequence.spawn / repro.utils.rng.spawn_seed_sequences."""
_FORK_EXAMPLE = """a = np.random.default_rng(seed)
b = np.random.default_rng(seed)   # identical stream, not an independent one"""

register_project_check(
    SEED_SOURCE_RULE_ID, _SOURCE_TITLE, _SOURCE_RATIONALE, example=_SOURCE_EXAMPLE
)
register_project_check(
    SEED_FORK_RULE_ID, _FORK_TITLE, _FORK_RATIONALE, example=_FORK_EXAMPLE
)

#: Calls whose *result* is entropy (taint sources).  Matched against the
#: import-resolved dotted name of the callee.
_ENTROPY_CALLS = frozenset(
    {
        "os.getpid",
        "os.getrandom",
        "os.urandom",
        "secrets.randbelow",
        "secrets.randbits",
        "secrets.token_bytes",
        "secrets.token_hex",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.time",
        "time.time_ns",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Builtins whose value varies across processes (PYTHONHASHSEED, heap
#: layout) — entropy for seeding purposes.
_ENTROPY_BUILTINS = frozenset({"hash", "id"})

#: numpy constructors whose first argument (or ``seed=``/``entropy=``)
#: seeds a stream.  Project-level consumers (``as_generator`` & co) are
#: discovered from their bodies, not listed here.
_NUMPY_SINKS = frozenset(
    {
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "SeedSequence",
        "default_rng",
    }
)

#: Dotted prefixes under which the numpy sink names are recognized when
#: spelled as attributes.
_NUMPY_PREFIXES = ("np.random", "numpy.random")

_SEEDISH_NAME = re.compile(r"(^|_)seed(s|_sequence)?(_|$)", re.IGNORECASE)

#: Assigned-value call leaves that mark a local as seed-typed even when
#: its name says nothing (``child = root.spawn(1)[0]``).
_SEED_VALUED_CALLS = frozenset({"SeedSequence", "spawn", "spawn_seed_sequences"})


def _call_leaf(call: ast.Call) -> Optional[str]:
    dotted = _dotted_name(call.func)
    if dotted is None:
        return None
    return dotted.rpartition(".")[2]


def _is_numpy_sink(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _NUMPY_SINKS
    if isinstance(func, ast.Attribute) and func.attr in _NUMPY_SINKS:
        dotted = _dotted_name(func)
        if dotted is None:
            return False
        return dotted.rpartition(".")[0] in _NUMPY_PREFIXES
    return False


def _sink_seed_arg(call: ast.Call) -> Optional[ast.expr]:
    """The seed expression of a numpy sink call, or None if unseeded."""
    if call.args and not isinstance(call.args[0], ast.Starred):
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("seed", "entropy"):
            return kw.value
    return None


def _is_none(expr: Optional[ast.expr]) -> bool:
    return expr is None or (
        isinstance(expr, ast.Constant) and expr.value is None
    )


def _terminates(stmts: List[ast.stmt]) -> bool:
    if not stmts:
        return False
    return isinstance(stmts[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue))


#: Branch context: ``(id(branching stmt), arm index)`` frames.  Two
#: sites are mutually exclusive iff they sit in different arms of the
#: same branching statement.
_Branch = Tuple[Tuple[int, int], ...]


def _exclusive(a: _Branch, b: _Branch) -> bool:
    arms = dict(b)
    for node_id, arm in a:
        other = arms.get(node_id)
        if other is not None and other != arm:
            return True
    return False


@dataclass(frozen=True)
class _ParamSink:
    """Where a function parameter ends up seeding a stream."""

    path: str
    line: int
    detail: str
    #: function leaf names from the consumer down to the sink.
    via: Tuple[str, ...]


@dataclass
class _Summary:
    """Interprocedural facts about one function (fixpoint state)."""

    returns_entropy: Optional[str] = None
    param_sinks: Dict[int, _ParamSink] = field(default_factory=dict)


@dataclass(frozen=True)
class _Consumption:
    name: str
    line: int
    col: int
    branch: _Branch
    detail: str


@dataclass
class _Bindings:
    """One function's local name bindings.

    They do not depend on the interprocedural summaries, so they are
    collected once per function rather than once per fixpoint round.
    """

    #: name → number of Store bindings in the body.
    store_counts: Dict[str, int] = field(default_factory=dict)
    #: name → all value exprs assigned to it (for taint + eligibility).
    assigned_values: Dict[str, List[ast.expr]] = field(default_factory=dict)
    #: local name → project class qualname (``x = ClassName(...)``).
    instances: Dict[str, str] = field(default_factory=dict)


def _collect_bindings(info: FunctionInfo, resolver: Resolver) -> _Bindings:
    bindings = _Bindings()
    store_counts = bindings.store_counts
    assigned_values = bindings.assigned_values
    for node in ast.walk(info.node):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            store_counts[node.id] = store_counts.get(node.id, 0) + 1
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None:
                continue
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        assigned_values.setdefault(name_node.id, []).append(
                            value
                        )
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                klass = resolver.resolve_class(node.value.func)
                if klass is not None:
                    bindings.instances[node.targets[0].id] = klass
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                assigned_values.setdefault(node.target.id, []).append(
                    node.value
                )
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            # Loop targets rebind per iteration: never fork-eligible.
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    store_counts[name_node.id] = (
                        store_counts.get(name_node.id, 0) + 2
                    )
    return bindings


class _SeedScanner:
    """One function's seed-flow facts: taint, sinks, consumptions."""

    def __init__(
        self,
        model: ProjectModel,
        resolver: Resolver,
        module: ModuleInfo,
        info: FunctionInfo,
        bindings: _Bindings,
        summaries: Dict[str, _Summary],
    ):
        self.model = model
        self.resolver = resolver
        self.module = module
        self.info = info
        self.summaries = summaries
        self.summary = _Summary()
        self.violations: List[Violation] = []
        self._consumptions: List[_Consumption] = []
        self._store_counts = bindings.store_counts
        self._assigned_values = bindings.assigned_values
        self._instances = bindings.instances
        self._tainted: Dict[str, str] = {}
        #: callees whose summaries this scan read (its only inputs that
        #: change between fixpoint rounds).
        self.consulted: Set[str] = set()
        self._compute_taint()

    def _callee_summary(self, qualname: str) -> Optional[_Summary]:
        self.consulted.add(qualname)
        return self.summaries.get(qualname)

    # -- taint pre-pass -------------------------------------------------
    def _entropy_call_desc(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if (
                func.id in _ENTROPY_BUILTINS
                and func.id not in self._store_counts
                and func.id not in self.module.functions
                and func.id not in self.module.imports
            ):
                return f"{func.id}()"
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        resolved = self.resolver.resolve_target(dotted) or dotted
        if resolved in _ENTROPY_CALLS or dotted in _ENTROPY_CALLS:
            return f"{resolved}()"
        return None

    def _resolve_call(
        self, call: ast.Call
    ) -> Optional[Tuple[FunctionInfo, int]]:
        """Project callee and its parameter offset (1 when ``self`` is
        implicit: methods via ``self.``/instance receivers, ``__init__``
        via construction), or None for unresolved/external callees."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self._store_counts:
                return None
            target = self.resolver.resolve_target(func.id)
            if target is None:
                return None
            return self._callable_for(target)
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and self.info.class_qualname is not None
            ):
                return self._method_of(self.info.class_qualname, func.attr)
            if isinstance(base, ast.Name) and base.id in self._instances:
                return self._method_of(self._instances[base.id], func.attr)
            dotted = _dotted_name(func)
            if dotted is not None:
                target = self.resolver.resolve_target(dotted)
                if target is not None:
                    return self._callable_for(target)
        return None

    def _callable_for(
        self, target: str
    ) -> Optional[Tuple[FunctionInfo, int]]:
        is_class = self.model.class_of_callable(target) is not None
        callee = self.model.lookup_callable(target)
        if callee is None:
            return None
        info = self.model.function(callee)
        if info is None:
            return None
        return info, 1 if is_class else 0

    def _method_of(
        self, class_qualname: str, attr: str
    ) -> Optional[Tuple[FunctionInfo, int]]:
        klass = self.model.classes.get(class_qualname)
        if klass is None:
            return None
        method = klass.methods.get(attr)
        if method is None:
            return None
        info = self.model.function(method)
        if info is None:
            return None
        return info, 1

    def _expr_taint(self, expr: ast.expr) -> Optional[str]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                desc = self._entropy_call_desc(node)
                if desc is not None:
                    return desc
                resolved = self._resolve_call(node)
                if resolved is not None:
                    callee_summary = self._callee_summary(
                        resolved[0].qualname
                    )
                    if callee_summary and callee_summary.returns_entropy:
                        return (
                            f"{resolved[0].name}() "
                            f"[returns {callee_summary.returns_entropy}]"
                        )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self._tainted:
                    return self._tainted[node.id]
        return None

    def _compute_taint(self) -> None:
        changed = True
        while changed:
            changed = False
            for name, exprs in self._assigned_values.items():
                if name in self._tainted:
                    continue
                for expr in exprs:
                    desc = self._expr_taint(expr)
                    if desc is not None:
                        self._tainted[name] = desc
                        changed = True
                        break

    # -- the ordered walk ----------------------------------------------
    def run(self) -> None:
        self._walk_body(list(self.info.node.body), ())
        self._emit_fork_violations()

    def _walk_body(self, stmts: List[ast.stmt], branch: _Branch) -> None:
        for stmt in stmts:
            self._walk(stmt, branch)
            # ``if cond: return ...`` guards make everything after the
            # guard exclusive with its body.
            if (
                isinstance(stmt, ast.If)
                and not stmt.orelse
                and _terminates(stmt.body)
            ):
                branch = branch + ((id(stmt), 1),)

    def _walk(self, node: ast.stmt, branch: _Branch) -> None:
        if isinstance(node, ast.If):
            self._scan_expr(node.test, branch)
            self._walk_body(node.body, branch + ((id(node), 0),))
            self._walk_body(node.orelse, branch + ((id(node), 1),))
            return
        if isinstance(node, ast.Try):
            self._walk_body(node.body, branch + ((id(node), 0),))
            for index, handler in enumerate(node.handlers):
                self._walk_body(handler.body, branch + ((id(node), index + 1),))
            self._walk_body(node.orelse, branch + ((id(node), 0),))
            self._walk_body(node.finalbody, branch)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                self._scan_expr(node.value, branch)
                if self.summary.returns_entropy is None:
                    desc = self._expr_taint(node.value)
                    if desc is not None:
                        self.summary.returns_entropy = desc
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._walk(child, branch)
            elif isinstance(child, (ast.expr, ast.keyword, ast.withitem,
                                    ast.arguments)):
                self._scan_expr(child, branch)

    def _scan_expr(self, expr: ast.AST, branch: _Branch) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node, branch)

    # -- call handling --------------------------------------------------
    def _handle_call(self, call: ast.Call, branch: _Branch) -> None:
        if _is_numpy_sink(call):
            self._handle_numpy_sink(call, branch)
            return
        resolved = self._resolve_call(call)
        if resolved is None:
            return
        callee, offset = resolved
        callee_summary = self._callee_summary(callee.qualname)
        if callee_summary is None or not callee_summary.param_sinks:
            return
        for index, arg in self._map_args(call, callee, offset):
            sink = callee_summary.param_sinks.get(index)
            if sink is None:
                continue
            if (
                isinstance(arg, ast.Name)
                and isinstance(arg.ctx, ast.Load)
                and self._expr_taint(arg) is None
            ):
                self._record_consumption(
                    arg.id,
                    call,
                    branch,
                    f"{callee.name}() [seeds {sink.detail}]",
                )
                self._record_param_sink(
                    arg.id,
                    _ParamSink(
                        path=sink.path,
                        line=sink.line,
                        detail=sink.detail,
                        via=(self.info.name,) + sink.via,
                    ),
                )
                continue
            desc = self._expr_taint(arg)
            if desc is not None:
                via = " -> ".join(sink.via + (sink.detail,))
                self._report(
                    SEED_SOURCE_RULE_ID,
                    call,
                    f"entropy from {desc} seeds an RNG stream through "
                    f"{callee.name}() (via {via}); streams must descend "
                    f"from explicit seeds — spawn children with "
                    f"spawn_seed_sequences",
                    chain=((sink.path, sink.line),),
                )

    def _handle_numpy_sink(self, call: ast.Call, branch: _Branch) -> None:
        leaf = _call_leaf(call) or "default_rng"
        seed_arg = _sink_seed_arg(call)
        if _is_none(seed_arg):
            self._report(
                SEED_SOURCE_RULE_ID,
                call,
                f"{leaf}() without a seed draws fresh OS entropy; "
                f"derive child streams from an explicit seed via "
                f"repro.utils.rng (as_generator / spawn_seed_sequences)",
            )
            return
        assert seed_arg is not None
        if isinstance(seed_arg, ast.Name) and isinstance(
            seed_arg.ctx, ast.Load
        ) and self._expr_taint(seed_arg) is None:
            self._record_consumption(
                seed_arg.id, call, branch, f"{leaf}()"
            )
            self._record_param_sink(
                seed_arg.id,
                _ParamSink(
                    path=self.module.path,
                    line=call.lineno,
                    detail=f"{leaf}()",
                    via=(self.info.name,),
                ),
            )
            return
        desc = self._expr_taint(seed_arg)
        if desc is not None:
            self._report(
                SEED_SOURCE_RULE_ID,
                call,
                f"{leaf}() seeded from {desc}; entropy-derived seeds make "
                f"the stream unreproducible — use an explicit seed or "
                f"spawn_seed_sequences",
            )

    def _map_args(
        self, call: ast.Call, callee: FunctionInfo, offset: int
    ) -> Iterable[Tuple[int, ast.expr]]:
        pairs: List[Tuple[int, ast.expr]] = []
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            index = offset + position
            if index < len(callee.params):
                pairs.append((index, arg))
        for kw in call.keywords:
            if kw.arg is None:
                continue
            index = callee.param_index(kw.arg)
            if index is not None:
                pairs.append((index, kw.value))
        return pairs

    # -- recording ------------------------------------------------------
    def _record_param_sink(self, name: str, sink: _ParamSink) -> None:
        index = self.info.param_index(name)
        if index is None or name in self._store_counts:
            return
        self.summary.param_sinks.setdefault(index, sink)

    def _record_consumption(
        self, name: str, call: ast.Call, branch: _Branch, detail: str
    ) -> None:
        self._consumptions.append(
            _Consumption(
                name=name,
                line=call.lineno,
                col=call.col_offset,
                branch=branch,
                detail=detail,
            )
        )

    def _fork_eligible(self, name: str) -> bool:
        stores = self._store_counts.get(name, 0)
        if self.info.param_index(name) is not None:
            return stores == 0 and bool(_SEEDISH_NAME.search(name))
        if stores != 1:
            return False
        if _SEEDISH_NAME.search(name):
            return True
        for value in self._assigned_values.get(name, ()):
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    leaf = _call_leaf(node)
                    if leaf in _SEED_VALUED_CALLS:
                        return True
        return False

    def _emit_fork_violations(self) -> None:
        by_name: Dict[str, List[_Consumption]] = {}
        for consumption in self._consumptions:
            by_name.setdefault(consumption.name, []).append(consumption)
        for name, sites in sorted(by_name.items()):
            if len(sites) < 2 or not self._fork_eligible(name):
                continue
            sites.sort(key=lambda s: (s.line, s.col))
            for index, site in enumerate(sites[1:], start=1):
                first = next(
                    (
                        earlier
                        for earlier in sites[:index]
                        if not _exclusive(earlier.branch, site.branch)
                    ),
                    None,
                )
                if first is None:
                    continue
                self.violations.append(
                    Violation(
                        path=self.module.path,
                        line=site.line,
                        col=site.col,
                        rule_id=SEED_FORK_RULE_ID,
                        message=(
                            f"seed {name!r} already seeded {first.detail} "
                            f"at line {first.line}; reusing it in "
                            f"{site.detail} aliases the two streams — "
                            f"spawn children via SeedSequence.spawn / "
                            f"spawn_seed_sequences"
                        ),
                        chain=((self.module.path, first.line),),
                    )
                )

    def _report(
        self,
        rule_id: str,
        node: ast.Call,
        message: str,
        chain: Tuple[Tuple[str, int], ...] = (),
    ) -> None:
        self.violations.append(
            Violation(
                path=self.module.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=rule_id,
                message=message,
                chain=chain,
            )
        )


def _solve(
    model: ProjectModel,
) -> Tuple[Dict[str, _Summary], Dict[str, _SeedScanner]]:
    """Iterate per-function scans until the summaries reach a fixpoint."""
    summaries: Dict[str, _Summary] = {
        qualname: _Summary() for qualname in model.functions
    }
    resolvers = {
        name: Resolver(model, module) for name, module in model.modules.items()
    }
    bindings = {
        info.qualname: _collect_bindings(info, resolvers[info.module])
        for info in model.iter_functions()
    }
    scanners: Dict[str, _SeedScanner] = {}
    # Between rounds only the summaries change, so each round re-scans
    # just the functions that read a summary the last round changed.
    pending = set(model.functions)
    for _ in range(8):
        for info in model.iter_functions():
            if info.qualname not in pending:
                continue
            scanner = _SeedScanner(
                model,
                resolvers[info.module],
                model.module_of(info),
                info,
                bindings[info.qualname],
                summaries,
            )
            scanner.run()
            scanners[info.qualname] = scanner
        changed = {
            qualname
            for qualname in pending
            if scanners[qualname].summary != summaries[qualname]
        }
        if not changed:
            break
        for qualname in changed:
            summaries[qualname] = scanners[qualname].summary
        pending = {
            qualname
            for qualname, scanner in scanners.items()
            if scanner.consulted & changed
        }
    return summaries, scanners


def check_seed_flow(model: ProjectModel) -> List[Violation]:
    """Run REPRO-SEED001/002 over a project model."""
    _, scanners = _solve(model)
    violations: List[Violation] = []
    seen: Set[Tuple[str, int, int, str]] = set()
    for scanner in scanners.values():
        for violation in scanner.violations:
            key = (
                violation.path,
                violation.line,
                violation.col,
                violation.rule_id,
            )
            if key in seen:
                continue
            seen.add(key)
            violations.append(violation)
    return sorted(violations)


def sink_sites(model: ProjectModel) -> List[Tuple[str, int]]:
    """Every seed-consuming site the pass inspected: numpy sink calls
    plus calls into project functions whose parameter reaches one.

    Exposed so the live-tree scope test can assert the pass actually
    visits ``service/``, ``solvers/`` and ``mlmc/`` — silent scope loss
    (an analyzer that no longer sees a package) would otherwise look
    exactly like a clean run.
    """
    summaries, scanners = _solve(model)
    sites: Set[Tuple[str, int]] = set()
    for info in model.iter_functions():
        module = model.module_of(info)
        scanner = scanners[info.qualname]
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            if _is_numpy_sink(node):
                sites.add((module.path, node.lineno))
                continue
            resolved = scanner._resolve_call(node)
            if resolved is None:
                continue
            summary = summaries.get(resolved[0].qualname)
            if summary is not None and summary.param_sinks:
                sites.add((module.path, node.lineno))
    return sorted(sites)
