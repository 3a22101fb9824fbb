"""Service-layer lock-discipline analysis (REPRO-LOCK001/002).

The daemon's worker fan-out (``Scheduler`` submits ``_run_worker`` into a
``ThreadPoolExecutor``) makes several objects genuinely multi-threaded:
the artifact registry, result streams, the fault injector, the compiled
program's double-checked build.  The repo's discipline is explicit: **a
class shared across threads declares a lock attribute, and every access
to its mutable state holds one**.  This pass audits exactly that
contract over the project call graph:

- **REPRO-LOCK001 — unguarded shared state.**  Within every lock-owning
  class reachable from a worker root (``pool.submit``/``map``,
  ``threading.Thread(target=...)``), each pair of conflicting accesses
  to an instance attribute (a write vs. any other access) must share at
  least one lock token.  Tokens understand ``Condition(self._lock)``
  aliasing and per-key lock factories (``self._build_lock(f"kle:{k}")``
  becomes the parametric token ``_build_lock(kle:*)``).  The
  double-checked idiom stays legal: an unlocked read is exempt when the
  same method re-reads the attribute under a lock the writers hold.

- **REPRO-LOCK002 — lock-order cycles.**  Acquiring ``B`` while holding
  ``A`` adds the edge ``A → B`` (lexically, and transitively through
  calls); a cycle in that graph is a potential deadlock.  Re-entrant
  self-edges on ``RLock`` tokens are allowed.

Deliberate scope limits: classes without a lock attribute are presumed
thread-confined (per-request/per-sweep numeric state — flagging those
would drown the signal); construction-phase helpers reachable only from
``__init__`` are exempt (no concurrent access exists before the
constructor returns); thread-safe primitives (``queue.Queue``,
``threading.Event``) are trusted, though *rebinding* such an attribute
still counts as a write.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.engine import Violation, register_project_check
from repro.analysis.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Resolver,
    _dotted_name,
)

__all__ = [
    "GUARD_RULE_ID",
    "ORDER_RULE_ID",
    "check_lock_discipline",
    "lock_classes",
    "worker_roots",
]

GUARD_RULE_ID = "REPRO-LOCK001"
ORDER_RULE_ID = "REPRO-LOCK002"

_GUARD_TITLE = "shared attribute accessed without a common lock"
_GUARD_RATIONALE = """An attribute of a lock-owning class is written on one
thread and read on another; unless both sides hold a common lock, the
reader can observe half-updated state (a torn counter, a cleared list
mid-iteration) and the determinism the service promises per request is
gone.  Guard every conflicting access pair with a shared lock, or prove
the double-checked shape by re-reading under the lock."""
_GUARD_EXAMPLE = """class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0
    def bump(self):
        self._total += 1          # written with no lock held"""

_ORDER_TITLE = "lock-acquisition order cycle (potential deadlock)"
_ORDER_RATIONALE = """Two code paths that acquire the same locks in opposite
orders deadlock the moment they interleave: each holds what the other
needs.  The acquisition-order graph (A → B when B is acquired while A is
held, directly or through calls) must stay acyclic; break cycles by
imposing one global order or collapsing to a single lock."""
_ORDER_EXAMPLE = """def credit(self):            # A → B
    with self._a:
        with self._b: ...
def debit(self):             # B → A: cycle
    with self._b:
        with self._a: ..."""

register_project_check(
    GUARD_RULE_ID, _GUARD_TITLE, _GUARD_RATIONALE, example=_GUARD_EXAMPLE
)
register_project_check(
    ORDER_RULE_ID, _ORDER_TITLE, _ORDER_RATIONALE, example=_ORDER_EXAMPLE
)

#: Constructors creating lock-like objects (attribute becomes a token).
_LOCK_CONSTRUCTORS = frozenset(
    {"BoundedSemaphore", "Condition", "Lock", "RLock", "Semaphore"}
)

#: Constructors creating internally synchronized objects: method calls on
#: these attributes are trusted, only rebinding counts as a write.
_THREADSAFE_CONSTRUCTORS = frozenset(
    {
        "Barrier",
        "Event",
        "LifoQueue",
        "PriorityQueue",
        "Queue",
        "SimpleQueue",
        "local",
    }
)

#: Container methods that mutate the receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Module functions whose first argument is mutated in place.
_MUTATING_FUNCS = frozenset(
    {"heapq.heappush", "heapq.heappop", "heapq.heapify", "heapq.heapreplace"}
)

_HeldSet = FrozenSet[str]


@dataclass(frozen=True)
class _AccessSite:
    attr: str
    line: int
    col: int
    is_write: bool
    held: _HeldSet
    method: str
    path: str


@dataclass(frozen=True)
class _OrderEdge:
    held: str
    acquired: str
    path: str
    line: int


@dataclass
class _MethodFacts:
    """Per-function call edges, lock acquisitions and attribute sites."""

    qualname: str
    #: (callee qualname, locks held at the call site).
    calls: List[Tuple[str, _HeldSet]] = field(default_factory=list)
    #: bare method names invoked on unresolved receivers (reachability).
    unresolved_methods: Set[str] = field(default_factory=set)
    #: tokens this function acquires lexically.
    acquires: Set[str] = field(default_factory=set)
    edges: List[_OrderEdge] = field(default_factory=list)
    sites: List[_AccessSite] = field(default_factory=list)


@dataclass
class _ClassLocks:
    """Lock inventory of one class."""

    info: ClassInfo
    #: lock attr → canonical token (Condition aliases collapse).
    tokens: Dict[str, str] = field(default_factory=dict)
    #: canonical token → constructor leaf ("RLock", "Condition", ...).
    kinds: Dict[str, str] = field(default_factory=dict)
    #: method names acting as parametric lock factories.
    factories: Set[str] = field(default_factory=set)
    #: attrs holding internally synchronized objects.
    threadsafe: Set[str] = field(default_factory=set)
    #: every attr ever assigned via ``self.X = ...``.
    assigned: Set[str] = field(default_factory=set)
    #: methods reachable only from ``__init__`` (construction phase).
    construction_only: Set[str] = field(default_factory=set)

    @property
    def tracked(self) -> Set[str]:
        return self.assigned - set(self.tokens) - self.threadsafe


def _call_leaf(call: ast.Call) -> Optional[str]:
    dotted = _dotted_name(call.func)
    if dotted is None:
        return None
    return dotted.rpartition(".")[2]


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _attr_root(node: ast.AST) -> Optional[ast.Attribute]:
    """The ``self.X`` attribute at the root of an access chain."""
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        if _self_attr(current) is not None:
            return current  # type: ignore[return-value]
        current = current.value
    return None


def _is_lock_factory_name(name: str) -> bool:
    """Whether a method name claims to hand out locks.  The match is on
    the word ``lock``, not the substring (``block_size`` and
    ``clock_tree`` are not lock factories)."""
    leaf = name.lower().lstrip("_")
    return (
        leaf == "lock"
        or leaf.endswith("_lock")
        or leaf.startswith("lock_")
        or "_lock_" in leaf
    )


def _collect_class_locks(model: ProjectModel, klass: ClassInfo) -> _ClassLocks:
    locks = _ClassLocks(info=klass)
    #: lock attr → attr it aliases (Condition(self._lock)).
    aliases: Dict[str, str] = {}
    kinds_by_attr: Dict[str, str] = {}
    for method_qual in klass.methods.values():
        info = model.function(method_qual)
        if info is None:
            continue
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                targets: List[ast.expr] = list(node.targets)
                value: Optional[ast.expr] = node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                locks.assigned.add(attr)
                if not isinstance(value, ast.Call):
                    continue
                leaf = _call_leaf(value)
                if leaf in _LOCK_CONSTRUCTORS:
                    kinds_by_attr[attr] = leaf or "Lock"
                    if value.args:
                        alias_of = _self_attr(value.args[0])
                        if alias_of is not None:
                            aliases[attr] = alias_of
                elif leaf in _THREADSAFE_CONSTRUCTORS:
                    locks.threadsafe.add(attr)
    class_leaf = klass.name
    for attr, kind in kinds_by_attr.items():
        root = attr
        hops = 0
        while root in aliases and hops < 8:
            root = aliases[root]
            hops += 1
        token = f"{class_leaf}.{root}"
        locks.tokens[attr] = token
        locks.kinds.setdefault(token, kinds_by_attr.get(root, kind))
    for name, method_qual in klass.methods.items():
        info = model.function(method_qual)
        if info is None or not _is_lock_factory_name(name):
            continue
        returns_value = any(
            isinstance(node, ast.Return) and node.value is not None
            for node in ast.walk(info.node)
        )
        if returns_value and name != "__init__":
            locks.factories.add(name)

    # Construction-only methods: reachable from __init__ but from no
    # other method — no concurrent access exists while they run.
    callgraph: Dict[str, Set[str]] = {}
    for name, method_qual in klass.methods.items():
        info = model.function(method_qual)
        callees: Set[str] = set()
        if info is not None:
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and _self_attr(node.func) is not None
                    and node.func.attr in klass.methods
                ):
                    callees.add(node.func.attr)
        callgraph[name] = callees
    init_reachable: Set[str] = set()
    frontier = list(callgraph.get("__init__", ()))
    while frontier:
        current = frontier.pop()
        if current in init_reachable:
            continue
        init_reachable.add(current)
        frontier.extend(callgraph.get(current, ()))
    # A private helper reachable from __init__ is construction-only
    # unless some method outside the construction phase also calls it;
    # peel candidates until that is stable.
    candidates = {
        name
        for name in init_reachable
        if name.startswith("_") and name != "__init__"
    }
    changed = True
    while changed:
        changed = False
        for name, callees in callgraph.items():
            if name == "__init__" or name in candidates:
                continue
            survivors = candidates - callees
            if survivors != candidates:
                candidates = survivors
                changed = True
    locks.construction_only = candidates
    return locks


class _MethodScanner:
    """Held-lock-aware walk of one method of a lock-owning class, or a
    plain call/acquisition walk of any other function."""

    def __init__(
        self,
        model: ProjectModel,
        resolver: Resolver,
        module: ModuleInfo,
        info: FunctionInfo,
        locks: Optional[_ClassLocks],
        property_names: FrozenSet[str],
    ):
        self.model = model
        self.resolver = resolver
        self.module = module
        self.info = info
        self.locks = locks
        self.property_names = property_names
        self.facts = _MethodFacts(info.qualname)
        #: local name → project class qualname (``x = ClassName(...)``).
        self._instances: Dict[str, str] = {}
        #: local name → its single constant-ish assigned value expr.
        self._single_assign: Dict[str, Optional[ast.expr]] = {}
        #: Attribute nodes consumed by a mutation (skip as reads).
        self._consumed: Set[int] = set()
        self._collect_locals()

    def _collect_locals(self) -> None:
        for node in ast.walk(self.info.node):
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if name in self._single_assign:
                    self._single_assign[name] = None
                else:
                    self._single_assign[name] = node.value
                if isinstance(node.value, ast.Call):
                    klass = self.resolver.resolve_class(node.value.func)
                    if klass is not None:
                        self._instances[name] = klass

    # -- tokens ---------------------------------------------------------
    def _factory_token(self, call: ast.Call) -> str:
        assert self.locks is not None
        method = (
            call.func.attr if isinstance(call.func, ast.Attribute) else "lock"
        )
        label = "*"
        arg: Optional[ast.expr] = call.args[0] if call.args else None
        if isinstance(arg, ast.Name):
            arg = self._single_assign.get(arg.id) or arg
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            label = arg.value
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            first = arg.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                label = f"{first.value}*"
        return f"{self.locks.info.name}.{method}({label})"

    def _acquired_token(self, expr: ast.expr) -> Optional[str]:
        if self.locks is None:
            return None
        attr = _self_attr(expr)
        if attr is not None:
            return self.locks.tokens.get(attr)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if (
                _self_attr(expr.func) is not None
                and expr.func.attr in self.locks.factories
            ):
                return self._factory_token(expr)
        return None

    # -- the walk -------------------------------------------------------
    def run(self) -> None:
        self._walk_body(list(self.info.node.body), frozenset())

    def _walk_body(self, stmts: List[ast.stmt], held: _HeldSet) -> None:
        for stmt in stmts:
            self._walk(stmt, held)

    def _walk(self, node: ast.stmt, held: _HeldSet) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._scan_expr(item.context_expr, inner)
                token = self._acquired_token(item.context_expr)
                if token is not None:
                    self._record_acquire(token, item.context_expr, inner)
                    inner = inner | {token}
            self._walk_body(node.body, inner)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._record_store(target, node, held)
            if node.value is not None:
                self._scan_expr(node.value, held)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._walk(child, held)
            elif isinstance(child, (ast.expr, ast.keyword, ast.withitem,
                                    ast.arguments)):
                self._scan_expr(child, held)
            elif isinstance(child, ast.excepthandler):
                self._walk_body(child.body, held)

    def _record_acquire(
        self, token: str, node: ast.AST, held: _HeldSet
    ) -> None:
        self.facts.acquires.add(token)
        for holder in held:
            self.facts.edges.append(
                _OrderEdge(
                    held=holder,
                    acquired=token,
                    path=self.module.path,
                    line=getattr(node, "lineno", 1),
                )
            )

    def _record_store(
        self, target: ast.AST, node: ast.AST, held: _HeldSet
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, node, held)
            return
        root = _attr_root(target)
        if root is None:
            return
        self._consumed.add(id(root))
        self._site(root.attr, node, True, held)
        # Rebinding a lock/threadsafe attr outside __init__ still counts.
        if isinstance(target, ast.Attribute) and _self_attr(target) is not None:
            return
        self._scan_expr(target, held)

    def _scan_expr(self, expr: ast.AST, held: _HeldSet) -> None:
        nodes = list(ast.walk(expr))
        for node in nodes:
            if isinstance(node, ast.Call):
                self._handle_call(node, held)
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in self._consumed
            ):
                attr = _self_attr(node)
                if attr is not None:
                    self._site(node.attr, node, False, held)
                elif node.attr in self.property_names:
                    self.facts.unresolved_methods.add(node.attr)

    def _handle_call(self, call: ast.Call, held: _HeldSet) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            root = _attr_root(func.value)
            if root is not None and func.attr in _MUTATING_METHODS:
                self._consumed.add(id(root))
                self._site(root.attr, call, True, held)
            dotted = _dotted_name(func)
            if dotted in _MUTATING_FUNCS and call.args:
                arg_root = _attr_root(call.args[0])
                if arg_root is not None:
                    self._consumed.add(id(arg_root))
                    self._site(arg_root.attr, call, True, held)
        elif isinstance(func, ast.Name) and func.id == "setattr" and call.args:
            arg_root = _attr_root(call.args[0])
            if arg_root is not None:
                self._consumed.add(id(arg_root))
                self._site(arg_root.attr, call, True, held)
        self._record_call_edge(call, held)

    def _site(
        self, attr: str, node: ast.AST, is_write: bool, held: _HeldSet
    ) -> None:
        if self.locks is None or attr not in self.locks.tracked:
            return
        if self.info.name in ("__init__", "__new__", "__post_init__"):
            return
        if self.info.name in self.locks.construction_only:
            return
        self.facts.sites.append(
            _AccessSite(
                attr=attr,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                is_write=is_write,
                held=held,
                method=self.info.name,
                path=self.module.path,
            )
        )

    def _record_call_edge(self, call: ast.Call, held: _HeldSet) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            target = self.resolver.resolve_target(func.id)
            if target is not None:
                callee = self.model.lookup_callable(target)
                if callee is not None:
                    self.facts.calls.append((callee, held))
            return
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and self.info.class_qualname is not None
            ):
                klass = self.model.classes.get(self.info.class_qualname)
                if klass is not None:
                    method = klass.methods.get(func.attr)
                    if method is not None:
                        self.facts.calls.append((method, held))
                        return
            if isinstance(base, ast.Name) and base.id in self._instances:
                klass = self.model.classes.get(self._instances[base.id])
                if klass is not None:
                    method = klass.methods.get(func.attr)
                    if method is not None:
                        self.facts.calls.append((method, held))
                        return
            dotted = _dotted_name(func)
            if dotted is not None:
                target = self.resolver.resolve_target(dotted)
                if target is not None:
                    callee = self.model.lookup_callable(target)
                    if callee is not None:
                        self.facts.calls.append((callee, held))
                        return
            self.facts.unresolved_methods.add(func.attr)


@dataclass(frozen=True)
class _Root:
    qualname: str
    line: int
    path: str
    kind: str


def worker_roots(model: ProjectModel) -> List[_Root]:
    """Every thread fan-out site: ``pool.submit``/``map`` first args and
    ``threading.Thread(target=...)`` targets resolved to project
    functions."""
    roots: List[_Root] = [
        _Root(r.qualname, r.line, r.path, "pool.submit")
        for r in model.submit_roots
    ]
    for info in model.iter_functions():
        module = model.module_of(info)
        resolver = Resolver(model, module)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None or dotted.rpartition(".")[2] != "Thread":
                continue
            for kw in node.keywords:
                if kw.arg != "target":
                    continue
                target_dotted = _dotted_name(kw.value)
                if target_dotted is None:
                    continue
                target = resolver.resolve_target(target_dotted)
                if target is None:
                    continue
                callee = model.lookup_callable(target)
                if callee is not None:
                    roots.append(
                        _Root(callee, node.lineno, module.path, "Thread")
                    )
    return roots


def _analyze(
    model: ProjectModel,
) -> Tuple[
    Dict[str, _MethodFacts],
    Dict[str, _ClassLocks],
    Dict[str, Tuple[str, ...]],
]:
    """Facts per function, lock inventory per class, and the reachable
    set (function → shortest chain) from all worker roots."""
    class_locks: Dict[str, _ClassLocks] = {}
    property_names: Set[str] = set()
    for qualname, klass in model.classes.items():
        locks = _collect_class_locks(model, klass)
        if locks.tokens:
            class_locks[qualname] = locks
            for name, method_qual in klass.methods.items():
                info = model.function(method_qual)
                if info is None:
                    continue
                for decorator in info.node.decorator_list:
                    dotted = _dotted_name(decorator) or ""
                    if dotted.rpartition(".")[2] in (
                        "property",
                        "cached_property",
                    ):
                        property_names.add(name)

    frozen_properties = frozenset(property_names)
    facts: Dict[str, _MethodFacts] = {}
    for info in model.iter_functions():
        module = model.module_of(info)
        locks = (
            class_locks.get(info.class_qualname)
            if info.class_qualname is not None
            else None
        )
        scanner = _MethodScanner(
            model,
            Resolver(model, module),
            module,
            info,
            locks,
            frozen_properties,
        )
        scanner.run()
        facts[info.qualname] = scanner.facts

    reachable: Dict[str, Tuple[str, ...]] = {}
    queue: List[str] = []
    for root in worker_roots(model):
        if root.qualname not in reachable:
            reachable[root.qualname] = (root.qualname,)
            queue.append(root.qualname)
    while queue:
        current = queue.pop(0)
        current_facts = facts.get(current)
        if current_facts is None:
            continue
        nexts: Set[str] = {callee for callee, _ in current_facts.calls}
        for method_name in current_facts.unresolved_methods:
            for candidate in model.methods_named(method_name):
                nexts.add(candidate.qualname)
        for callee in sorted(nexts):
            if callee not in reachable:
                reachable[callee] = reachable[current] + (callee,)
                queue.append(callee)
    return facts, class_locks, reachable


def _transitive_acquires(
    facts: Dict[str, _MethodFacts]
) -> Dict[str, FrozenSet[str]]:
    acquires = {q: frozenset(f.acquires) for q, f in facts.items()}
    changed = True
    while changed:
        changed = False
        for qualname, f in facts.items():
            merged = set(acquires[qualname])
            for callee, _ in f.calls:
                merged |= acquires.get(callee, frozenset())
            frozen = frozenset(merged)
            if frozen != acquires[qualname]:
                acquires[qualname] = frozen
                changed = True
    return acquires


def check_lock_discipline(model: ProjectModel) -> List[Violation]:
    """Run REPRO-LOCK001/002 over a project model."""
    facts, class_locks, reachable = _analyze(model)
    violations: List[Violation] = []
    seen: Set[Tuple[str, int, int, str]] = set()

    def report(
        rule_id: str,
        path: str,
        line: int,
        col: int,
        message: str,
        chain: Tuple[Tuple[str, int], ...] = (),
    ) -> None:
        key = (path, line, col, rule_id)
        if key in seen:
            return
        seen.add(key)
        violations.append(
            Violation(
                path=path,
                line=line,
                col=col,
                rule_id=rule_id,
                message=message,
                chain=chain,
            )
        )

    # ---- LOCK001: pairwise guarded access -----------------------------
    for class_qual, locks in sorted(class_locks.items()):
        methods = locks.info.methods
        chains = [
            reachable[method_qual]
            for method_qual in methods.values()
            if method_qual in reachable
        ]
        if not chains:
            continue
        shared_chain = min(chains, key=lambda chain: (len(chain), chain))
        chain_text = " -> ".join(
            q.rpartition(".")[2] for q in shared_chain
        )
        sites: Dict[str, List[_AccessSite]] = {}
        for method_qual in methods.values():
            for site in facts[method_qual].sites:
                sites.setdefault(site.attr, []).append(site)
        for attr, attr_sites in sorted(sites.items()):
            writes = [s for s in attr_sites if s.is_write]
            if not writes:
                continue
            exempt_methods = _double_checked_methods(attr_sites, writes)
            for write in writes:
                for other in attr_sites:
                    if other is write:
                        continue
                    if write.held & other.held:
                        continue
                    offender = min(
                        (other, write), key=lambda s: (len(s.held), s.is_write)
                    )
                    partner = write if offender is other else other
                    if (
                        not offender.is_write
                        and not offender.held
                        and offender.method in exempt_methods
                    ):
                        continue
                    held_text = (
                        "holding {" + ", ".join(sorted(offender.held)) + "}"
                        if offender.held
                        else "with no lock held"
                    )
                    partner_held = (
                        "{" + ", ".join(sorted(partner.held)) + "}"
                        if partner.held
                        else "no lock"
                    )
                    report(
                        GUARD_RULE_ID,
                        offender.path,
                        offender.line,
                        offender.col,
                        (
                            f"{locks.info.name}.{attr} "
                            f"{'written' if offender.is_write else 'read'} "
                            f"{held_text}, but "
                            f"{'written' if partner.is_write else 'accessed'}"
                            f" under {partner_held} at line {partner.line}; "
                            f"threads reach this class via {chain_text} — "
                            f"guard both sides with a common lock"
                        ),
                        chain=((partner.path, partner.line),),
                    )

    # ---- LOCK002: acquisition-order cycles ----------------------------
    acquires = _transitive_acquires(facts)
    edges: Dict[Tuple[str, str], _OrderEdge] = {}
    for f in facts.values():
        for edge in f.edges:
            edges.setdefault((edge.held, edge.acquired), edge)
        for callee, held in f.calls:
            for token in acquires.get(callee, frozenset()):
                for holder in held:
                    witness = _OrderEdge(
                        held=holder,
                        acquired=token,
                        path=model.module_of(
                            model.function(f.qualname)  # type: ignore[arg-type]
                        ).path
                        if model.function(f.qualname)
                        else "",
                        line=1,
                    )
                    edges.setdefault((holder, token), witness)

    kinds: Dict[str, str] = {}
    for locks in class_locks.values():
        kinds.update(locks.kinds)
    graph: Dict[str, Set[str]] = {}
    for (held, acquired), _ in edges.items():
        if held == acquired:
            if kinds.get(held) == "RLock":
                continue
            graph.setdefault(held, set()).add(acquired)
        else:
            graph.setdefault(held, set()).add(acquired)

    for cycle in _find_cycles(graph):
        witness = None
        for index, token in enumerate(cycle):
            nxt = cycle[(index + 1) % len(cycle)]
            witness = edges.get((token, nxt)) or witness
        if witness is None:
            continue
        cycle_text = " -> ".join(cycle + (cycle[0],))
        report(
            ORDER_RULE_ID,
            witness.path,
            witness.line,
            0,
            (
                f"lock acquisition cycle {cycle_text}: two interleaving "
                f"threads each hold what the other needs — impose one "
                f"global acquisition order or collapse to a single lock"
            ),
        )
    return sorted(violations)


def _double_checked_methods(
    attr_sites: List[_AccessSite], writes: List[_AccessSite]
) -> Set[str]:
    """Methods whose unlocked reads are the first half of a
    double-checked pattern: the same method re-reads the attribute
    under a lock every writer holds."""
    write_locks = [s.held for s in writes]
    exempt: Set[str] = set()
    for site in attr_sites:
        if site.is_write or not site.held:
            continue
        if all(site.held & held for held in write_locks):
            exempt.add(site.method)
    return exempt


def _find_cycles(graph: Dict[str, Set[str]]) -> List[Tuple[str, ...]]:
    """Simple cycles in a small digraph (Tarjan SCCs; one cycle per SCC,
    plus explicit self-loops)."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    cycles: List[Tuple[str, ...]] = []

    def strongconnect(node: str) -> None:
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for successor in sorted(graph.get(node, ())):
            if successor not in index:
                strongconnect(successor)
                lowlink[node] = min(lowlink[node], lowlink[successor])
            elif successor in on_stack:
                lowlink[node] = min(lowlink[node], index[successor])
        if lowlink[node] == index[node]:
            component: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                cycles.append(tuple(sorted(component)))
            elif component and component[0] in graph.get(component[0], ()):
                cycles.append((component[0],))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return cycles


def lock_classes(model: ProjectModel) -> List[str]:
    """Qualnames of every lock-owning class the pass audits.

    Exposed for the live-tree scope test (guards against silent scope
    loss — see :func:`repro.analysis.seedflow.sink_sites`).
    """
    _, class_locks, _ = _analyze(model)
    return sorted(class_locks)
