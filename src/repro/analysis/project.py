"""Whole-program project model: modules, symbols, and call resolution.

The per-file rule engine (:mod:`repro.analysis.engine`) sees one AST at
a time, so it cannot answer the questions the repo's native boundary
and process-pool fan-out raise: *which* function does ``pool.submit``
actually run, and what does a value passed three helpers deep look like
when it reaches ``ctypes``?  This module builds the shared
whole-program substrate those analyses
(:mod:`repro.analysis.dataflow`, :mod:`repro.analysis.concurrency`)
reason over:

- a **module table** mapping dotted module names to parsed sources,
  with per-module import alias maps (``np`` → ``numpy``,
  ``native`` → ``repro.timing.native``, relative imports resolved
  against the package);
- a **symbol table** of every function (module-level, methods, and
  nested definitions, in document order) and class, keyed by fully
  qualified dotted name;
- a :class:`Resolver` that turns a call expression inside a given
  function into the :class:`FunctionInfo` it invokes, handling bare
  names, imported names, dotted module access, ``self.method`` and
  ``ClassName(...)`` construction.

The model is purely syntactic — nothing is imported or executed — so it
can be built for arbitrary analysis targets (``src/repro`` as well as
seeded-violation fixture trees in the test suite).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.engine import iter_python_files

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "Resolver",
    "function_parameters",
]

AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def function_parameters(node: AnyFunctionDef) -> Tuple[str, ...]:
    """Positional + keyword-only parameter names of ``node``, in call order.

    ``*args`` / ``**kwargs`` are excluded: the interprocedural analyses
    only propagate facts through parameters they can match to concrete
    call-site arguments.
    """
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return tuple(names)


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in the project."""

    qualname: str
    module: str
    name: str
    node: AnyFunctionDef
    params: Tuple[str, ...]
    class_qualname: Optional[str] = None
    enclosing: Optional[str] = None

    @property
    def is_method(self) -> bool:
        """Whether this function is defined directly inside a class body."""
        return self.class_qualname is not None

    def param_index(self, name: str) -> Optional[int]:
        """Index of parameter ``name`` (``self``/``cls`` counted), or None."""
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition: name plus its directly defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its local name bindings."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: local alias → fully qualified imported target.
    imports: Dict[str, str] = field(default_factory=dict)
    #: bare top-level function name → fully qualified name.
    functions: Dict[str, str] = field(default_factory=dict)
    #: bare top-level class name → fully qualified name.
    classes: Dict[str, str] = field(default_factory=dict)
    #: top-level assigned name → its (last) value expression.
    module_assigns: Dict[str, ast.expr] = field(default_factory=dict)


def _module_name_for(root: Path, file: Path, package: Optional[str]) -> str:
    relative = file.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if package is not None:
        parts = [package] + parts
    return ".".join(parts) if parts else (package or file.stem)


class ProjectModel:
    """The whole-program symbol table over a set of analyzed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._module_by_path: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Iterable[Union[str, Path]]) -> "ProjectModel":
        """Build the model from files/directories (unparseable files are
        skipped — the per-file engine reports those as REPRO-SYNTAX)."""
        model = cls()
        for raw in paths:
            root = Path(raw)
            if root.is_file():
                model._add_file(root, root.stem)
                continue
            package = root.name if (root / "__init__.py").is_file() else None
            for file_path in iter_python_files([root]):
                model._add_file(
                    file_path, _module_name_for(root, file_path, package)
                )
        return model

    def _add_file(self, path: Path, module_name: str) -> None:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError):
            return
        module = ModuleInfo(
            name=module_name, path=str(path), source=source, tree=tree
        )
        self.modules[module_name] = module
        self._module_by_path[str(path)] = module_name
        self._collect_imports(module)
        self._collect_definitions(module)

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        module.imports.setdefault(head, head)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = module.name.split(".")
                    anchor = parts[: max(len(parts) - node.level, 0)]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    module.imports[local] = target

    def _collect_definitions(self, module: ModuleInfo) -> None:
        def visit(
            node: ast.AST,
            prefix: str,
            class_qual: Optional[str],
            enclosing: Optional[str],
            top_level: bool,
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{child.name}"
                    info = FunctionInfo(
                        qualname=qual,
                        module=module.name,
                        name=child.name,
                        node=child,
                        params=function_parameters(child),
                        class_qualname=class_qual,
                        enclosing=enclosing,
                    )
                    self.functions[qual] = info
                    if top_level and class_qual is None:
                        module.functions[child.name] = qual
                    if class_qual is not None and enclosing is None:
                        self.classes[class_qual].methods[child.name] = qual
                    visit(child, qual, None, qual, False)
                elif isinstance(child, ast.ClassDef):
                    qual = f"{prefix}.{child.name}"
                    self.classes[qual] = ClassInfo(
                        qualname=qual,
                        module=module.name,
                        name=child.name,
                        node=child,
                    )
                    if top_level:
                        module.classes[child.name] = qual
                    visit(child, qual, qual, None, False)
                elif top_level and isinstance(child, ast.Assign):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            module.module_assigns[target.id] = child.value
                elif top_level and isinstance(child, ast.AnnAssign):
                    if isinstance(child.target, ast.Name) and child.value:
                        module.module_assigns[child.target.id] = child.value

        visit(module.tree, module.name, None, None, True)

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def module_of(self, info: FunctionInfo) -> ModuleInfo:
        """The :class:`ModuleInfo` a function belongs to."""
        return self.modules[info.module]

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        """Function info by fully qualified name, or None."""
        return self.functions.get(qualname)

    def lookup_callable(self, target: str) -> Optional[str]:
        """Resolve a fully qualified *target* name to a function qualname.

        A target naming a class resolves to its ``__init__`` (if defined
        in the project); a target naming a module resolves to nothing.
        """
        if target in self.functions:
            return target
        klass = self.classes.get(target)
        if klass is not None:
            return klass.methods.get("__init__")
        return None

    def class_of_callable(self, target: str) -> Optional[str]:
        """If ``target`` names a project class, its qualname, else None."""
        if target in self.classes:
            return target
        return None

    def owner_class(self, info: FunctionInfo) -> Optional[str]:
        """The class whose ``self`` ``info`` sees, through nested defs."""
        current: Optional[FunctionInfo] = info
        while current is not None and current.class_qualname is None:
            if current.enclosing is None:
                return None
            current = self.functions.get(current.enclosing)
        return current.class_qualname if current is not None else None

    def methods_named(self, name: str) -> List[FunctionInfo]:
        """Every method in the project with bare name ``name``.

        Used as the conservative fallback for attribute calls whose
        receiver type is unknown (``x.run(...)`` links to every ``run``
        method) — over-approximation keeps reachability analyses sound.
        """
        return [
            info
            for info in self.functions.values()
            if info.name == name and info.class_qualname is not None
        ]

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """All functions in insertion (document) order."""
        return iter(self.functions.values())


class Resolver:
    """Name resolution for one module's scope.

    Turns names and dotted expressions appearing inside ``module`` into
    fully qualified project symbols, using the module's import aliases
    and top-level definitions.  Function-local bindings (nested defs,
    instance variables) are layered on top by the analyses themselves.
    """

    def __init__(self, model: ProjectModel, module: ModuleInfo):
        self.model = model
        self.module = module

    def resolve_target(self, dotted: str) -> Optional[str]:
        """Fully qualified target a dotted local name refers to, or None.

        ``native.load_kernel`` with ``from repro.timing import native``
        resolves to ``repro.timing.native.load_kernel``; unknown heads
        (``np``, ``ctypes``) resolve to their external dotted form so
        callers can still pattern-match on them.
        """
        head, _, rest = dotted.partition(".")
        local_fn = self.module.functions.get(head)
        if local_fn is not None and not rest:
            return local_fn
        local_cls = self.module.classes.get(head)
        if local_cls is not None:
            return f"{local_cls}.{rest}" if rest else local_cls
        imported = self.module.imports.get(head)
        if imported is not None:
            return f"{imported}.{rest}" if rest else imported
        return None

    def resolve_callable(self, expr: ast.expr) -> Optional[str]:
        """Function qualname a callee expression invokes, or None.

        Handles ``f`` (module function / imported function),
        ``mod.sub.f`` (imported module attribute) and ``Class`` /
        ``mod.Class`` construction (→ ``Class.__init__``).  ``self.m``
        and local-variable receivers are resolved by the analyses,
        which know the enclosing class and local bindings.
        """
        dotted = _dotted_name(expr)
        if dotted is None:
            return None
        target = self.resolve_target(dotted)
        if target is None:
            return None
        return self.model.lookup_callable(target)

    def resolve_class(self, expr: ast.expr) -> Optional[str]:
        """Project class qualname a constructor expression names, or None."""
        dotted = _dotted_name(expr)
        if dotted is None:
            return None
        target = self.resolve_target(dotted)
        if target is None:
            return None
        return self.model.class_of_callable(target)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render an ``a.b.c`` attribute/name chain, or None if not one."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))
