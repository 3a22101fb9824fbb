"""Concurrency-safety rule over the project call graph (REPRO-PAR001).

``run_table1(parallel=...)`` fans work out through a
``ProcessPoolExecutor``; each worker re-imports the library and runs the
submitted function in its own process.  Module-level mutable globals
make that fan-out silently wrong: a worker that mutates a module-level
dict/list/rebinding only mutates *its own process's* copy — the parent
never sees the write, so code that "accumulates" into a global under the
pool loses data without any error.  Per-process memo caches are
legitimate, but must say so with an inline justification suppression.

The rule is whole-program: the offending write may sit several calls
below the submitted function.  This module walks the call graph from
every fan-out root (:attr:`ProjectModel.submit_roots`; direct
resolution plus a conservative any-method-of-this-name fallback for
unknown receivers) and reports each offending *site* with the root and
call path that reaches it.  Unseeded RNG in worker code needs no
reachability: REPRO-RNG001 and REPRO-SEED001 flag it everywhere.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.engine import Violation, register_project_check
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Resolver,
    _dotted_name,
)

__all__ = [
    "GLOBAL_RULE_ID",
    "check_concurrency",
]

GLOBAL_RULE_ID = "REPRO-PAR001"

GLOBAL_RULE_TITLE = "pool-submitted code mutates a module-level global"
GLOBAL_RULE_RATIONALE = """Functions submitted to a ProcessPoolExecutor run
in worker processes; writes to module-level mutable state stay in the
worker and vanish, so accumulate-into-a-global logic silently loses
data under run_table1(parallel=...).  Pass state in and return results
out; per-process memo caches must carry a justification suppression."""

GLOBAL_RULE_EXAMPLE = """_counter = 0
def worker(task):
    global _counter
    _counter += 1          # racy: runs inside pool.submit(worker, ...)"""

register_project_check(
    GLOBAL_RULE_ID,
    GLOBAL_RULE_TITLE,
    GLOBAL_RULE_RATIONALE,
    example=GLOBAL_RULE_EXAMPLE,
)

#: Constructor calls producing module-level *mutable* containers.
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray", "deque"})

#: Container methods that mutate the receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "add",
        "discard",
        "setdefault",
        "appendleft",
    }
)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted_name(node.func)
        if dotted is None:
            return False
        return dotted.rpartition(".")[2] in _MUTABLE_CONSTRUCTORS
    return False


@dataclass(frozen=True)
class _Site:
    """One offending access inside one function."""

    line: int
    col: int
    detail: str


@dataclass
class _FunctionFacts:
    """Per-function call edges and offending sites (one syntactic pass)."""

    qualname: str
    #: resolved project callees (qualnames).
    calls: Set[str] = field(default_factory=set)
    #: bare method names invoked on unresolved receivers.
    unresolved_methods: Set[str] = field(default_factory=set)
    global_sites: List[_Site] = field(default_factory=list)


class _FunctionScanner(ast.NodeVisitor):
    """Collect calls and global writes inside one function."""

    def __init__(
        self,
        model: ProjectModel,
        resolver: Resolver,
        module: ModuleInfo,
        info: FunctionInfo,
        mutable_globals: Set[str],
    ):
        self.model = model
        self.resolver = resolver
        self.module = module
        self.info = info
        self.mutable_globals = mutable_globals
        self.facts = _FunctionFacts(info.qualname)
        self._locals: Set[str] = set(info.params)
        self._global_decls: Set[str] = set()
        #: local name → project class qualname (``x = ClassName(...)``).
        self._instances: Dict[str, str] = {}
        self._collect_locals(info.node)

    def _collect_locals(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                self._global_decls.update(child.names)
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            self._locals.add(name_node.id)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                for name_node in ast.walk(child.target):
                    if isinstance(name_node, ast.Name):
                        self._locals.add(name_node.id)
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if item.optional_vars is not None:
                        for name_node in ast.walk(item.optional_vars):
                            if isinstance(name_node, ast.Name):
                                self._locals.add(name_node.id)
        self._locals -= self._global_decls

    # -- name classification -------------------------------------------
    def _is_module_global(self, name: str) -> bool:
        if name in self._global_decls:
            return name in self.module.module_assigns
        return name not in self._locals and name in self.mutable_globals

    def _root_name(self, node: ast.AST) -> Optional[str]:
        current = node
        while isinstance(current, (ast.Subscript, ast.Attribute)):
            current = current.value
        if isinstance(current, ast.Name):
            return current.id
        return None

    def _flag_global(self, node: ast.AST, name: str, how: str) -> None:
        self.facts.global_sites.append(
            _Site(
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                detail=f"{how} module-level {name!r}",
            )
        )

    # -- visitors -------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node)
        # x = ClassName(...) — remember the receiver type for x.method().
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            klass = self.resolver.resolve_class(node.value.func)
            if klass is not None:
                self._instances[node.targets[0].id] = klass
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def _check_store(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._global_decls and (
                target.id in self.module.module_assigns
            ):
                self._flag_global(node, target.id, "rebinds (via global)")
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            root = self._root_name(target)
            if root is not None and self._is_module_global(root):
                self._flag_global(node, root, "writes into")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # Mutating container method on a module-level global.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            root = self._root_name(func.value)
            if root is not None and self._is_module_global(root):
                self._flag_global(
                    node, root, f"calls .{func.attr}(...) on"
                )
        self._record_call_edge(node)
        self.generic_visit(node)

    def _record_call_edge(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._locals:
                return
            target = self.resolver.resolve_target(func.id)
            if target is not None:
                callee = self.model.lookup_callable(target)
                if callee is not None:
                    self.facts.calls.add(callee)
            return
        if isinstance(func, ast.Attribute):
            base = func.value
            # self.method() → the enclosing class's method.
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and self.info.class_qualname is not None
            ):
                klass = self.model.classes.get(self.info.class_qualname)
                if klass is not None:
                    method = klass.methods.get(func.attr)
                    if method is not None:
                        self.facts.calls.add(method)
                        return
            # x.method() where x = ClassName(...) locally.
            if isinstance(base, ast.Name) and base.id in self._instances:
                klass = self.model.classes.get(self._instances[base.id])
                if klass is not None:
                    method = klass.methods.get(func.attr)
                    if method is not None:
                        self.facts.calls.add(method)
                        return
            dotted = _dotted_name(func)
            if dotted is not None:
                target = self.resolver.resolve_target(dotted)
                if target is not None:
                    callee = self.model.lookup_callable(target)
                    if callee is not None:
                        self.facts.calls.add(callee)
                        return
            # Unknown receiver: conservative fallback by method name.
            self.facts.unresolved_methods.add(func.attr)

    # Nested defs are part of this function's behavior, so keep walking
    # into them (generic_visit already does).


def _module_mutable_globals(module: ModuleInfo) -> Set[str]:
    return {
        name
        for name, value in module.module_assigns.items()
        if _is_mutable_literal(value)
    }


def check_concurrency(model: ProjectModel) -> List[Violation]:
    """Run REPRO-PAR001 over a project model."""
    facts: Dict[str, _FunctionFacts] = {}
    for info in model.iter_functions():
        module = model.module_of(info)
        scanner = _FunctionScanner(
            model,
            Resolver(model, module),
            module,
            info,
            _module_mutable_globals(module),
        )
        scanner.visit(info.node)
        facts[info.qualname] = scanner.facts

    violations: List[Violation] = []
    seen: Set[Tuple[str, int, int]] = set()

    for root in model.submit_roots:
        # BFS from the submitted function, remembering one shortest call
        # path to each reached function for the report.
        paths: Dict[str, Tuple[str, ...]] = {root.qualname: (root.qualname,)}
        queue: List[str] = [root.qualname]
        while queue:
            current = queue.pop(0)
            current_facts = facts.get(current)
            if current_facts is None:
                continue
            nexts: Set[str] = set(current_facts.calls)
            for method_name in current_facts.unresolved_methods:
                for candidate in model.methods_named(method_name):
                    nexts.add(candidate.qualname)
            for callee in sorted(nexts):
                if callee not in paths:
                    paths[callee] = paths[current] + (callee,)
                    queue.append(callee)

        root_leaf = root.qualname.rpartition(".")[2]
        for reached, chain in paths.items():
            reached_facts = facts.get(reached)
            if reached_facts is None:
                continue
            reached_info = model.function(reached)
            if reached_info is None:
                continue
            reached_path = model.module_of(reached_info).path
            chain_text = " -> ".join(q.rpartition(".")[2] for q in chain)
            for site in reached_facts.global_sites:
                key = (reached_path, site.line, site.col)
                if key in seen:
                    continue
                seen.add(key)
                violations.append(
                    Violation(
                        path=reached_path,
                        line=site.line,
                        col=site.col,
                        rule_id=GLOBAL_RULE_ID,
                        message=(
                            f"{site.detail} state in code reachable from "
                            f"pool-submitted {root_leaf}() "
                            f"(via {chain_text}); worker-process writes "
                            f"never reach the parent — pass state in and "
                            f"return results, or justify a per-process "
                            f"cache with a suppression"
                        ),
                    )
                )
    return sorted(violations)
