"""Rule engine for the project linter (``python -m repro.analysis``).

The repo's headline guarantees — bitwise-identical compiled/MLMC paths,
prefix-coupled RNG streams, checksummed immutable cache artifacts, a
ctypes-loaded C kernel — rest on *disciplines* (seed threading, no
global RNG state, no mutation of cached arrays, stable cache keys) that
ordinary test suites only probe pointwise.  This module provides the
static side of that enforcement: a small, dependency-free AST rule
engine with

- a **rule registry** (:func:`register_rule`, :func:`all_rules`) that
  project rules in :mod:`repro.analysis.rules` add themselves to;
- **per-file visitor dispatch** — each file is parsed once, every rule
  declares the node types it is interested in, and a single ordered
  walk feeds each node to exactly the interested rules (plus
  ``begin_file``/``finish_file`` hooks for whole-file rules);
- **suppressions** — ``# repro-lint: disable=RULE[,RULE...]`` trailing a
  line silences those rules on that line, and
  ``# repro-lint: disable-file=RULE[,RULE...]`` anywhere in a file
  silences them for the whole file (``all`` matches every rule);
- plain-data :class:`Violation` results that the reporters in
  :mod:`repro.analysis.reporters` render as human or JSON output.

The engine knows nothing about the individual rules; importing
:mod:`repro.analysis.rules` (done by :mod:`repro.analysis`) populates
the registry.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

__all__ = [
    "FileContext",
    "FileReport",
    "LINT_RULE_ID",
    "Rule",
    "SYNTAX_ERROR_RULE_ID",
    "Violation",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "analyze_source_report",
    "iter_python_files",
    "known_rule_ids",
    "project_check_ids",
    "register_project_check",
    "register_rule",
    "rule_catalog",
    "stale_suppressions",
]

#: Pseudo-rule id attached to files that fail to parse at all.
SYNTAX_ERROR_RULE_ID = "REPRO-SYNTAX"

#: Rule id for suppression comments that no longer suppress anything.
LINT_RULE_ID = "REPRO-LINT001"

_SUPPRESS_LINE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-\s]+)"
)
_SUPPRESS_FILE = re.compile(
    r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\-\s]+)"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at one source location.

    Whole-program findings may carry a ``chain``: the ``(path, line)``
    locations of the call/report chain that led to the finding (root
    first, offending site last).  A ``# repro-lint: disable=`` directive
    at *any* chain location silences the finding, and the
    stale-suppression audit treats such a directive as live — this is
    what lets checks that report at the chain root still honor a
    justification written at the violating site (and vice versa).
    Per-file rules leave it empty.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    chain: Tuple[Tuple[str, int], ...] = ()

    def format(self) -> str:
        """Render as the conventional ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by the ``--json`` reporter)."""
        payload: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
        if self.chain:
            payload["chain"] = [
                {"path": p, "line": n} for p, n in self.chain
            ]
        return payload

    def chain_lines_in(self, path: str) -> Set[int]:
        """Line numbers of this finding (primary + chain links) in ``path``."""
        lines = {self.line} if self.path == path else set()
        lines.update(n for p, n in self.chain if p == path)
        return lines


class FileContext:
    """Per-file state shared by every rule during one analysis pass.

    Exposes the parsed tree, raw source lines, and lazily built parent
    links so rules can ask structural questions (``parent``,
    ``enclosing_functions``) without each re-walking the tree.
    """

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s ancestors innermost-first, ending at the module."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_functions(
        self, node: ast.AST
    ) -> Iterator[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        """Yield the function definitions lexically containing ``node``,
        innermost first."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield ancestor


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement any of the three
    hooks.  ``interests`` is the tuple of AST node types routed to
    :meth:`visit`; rules that need whole-file context (scope tracking,
    cross-statement state) use :meth:`begin_file`/:meth:`finish_file`
    instead and may leave ``interests`` empty.  A fresh instance is
    created per analysis run, and ``begin_file`` is called before each
    file, so instance attributes are safe per-file scratch space.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: A minimal offending snippet (shown by ``--explain``).
    example: str = ""
    interests: Tuple[Type[ast.AST], ...] = ()

    def begin_file(self, ctx: FileContext) -> None:
        """Reset per-file state.  Default: nothing."""

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Violation]:
        """Check one node of an interested type.  Default: no findings."""
        return ()

    def finish_file(self, ctx: FileContext) -> Iterable[Violation]:
        """Emit findings needing whole-file state.  Default: none."""
        return ()

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` for ``node`` under this rule."""
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_class`` to the global registry.

    Rule ids must be unique and non-empty; double registration of the
    same id is a programming error and raises immediately.
    """
    rule_id = rule_class.id
    if not rule_id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


#: Metadata for whole-program checks (project model / call graph) that
#: run in :mod:`repro.analysis.gate` rather than through the
#: per-file visitor dispatch.  Registered here so the rule catalog,
#: ``--select`` validation and suppression bookkeeping treat them
#: exactly like per-file rules.
_PROJECT_CHECKS: Dict[str, Dict[str, str]] = {}


def register_project_check(
    check_id: str, title: str, rationale: str, example: str = ""
) -> None:
    """Register catalog metadata for a whole-program check id."""
    if not check_id:
        raise ValueError("project check has no id")
    if check_id in _REGISTRY:
        raise ValueError(f"id {check_id!r} already names a per-file rule")
    _PROJECT_CHECKS[check_id] = {
        "id": check_id,
        "title": title,
        "rationale": " ".join(rationale.split()),
        "example": example,
    }


def project_check_ids() -> Set[str]:
    """Ids of every registered whole-program check."""
    return set(_PROJECT_CHECKS)


def known_rule_ids() -> Set[str]:
    """Every id a suppression/selection may legitimately reference."""
    return set(_REGISTRY) | set(_PROJECT_CHECKS) | {SYNTAX_ERROR_RULE_ID}


def rule_catalog() -> List[Dict[str, str]]:
    """Id/title/rationale of every registered rule and whole-program
    check (for ``--list-rules`` and the JSON report)."""
    entries = [
        {
            "id": rule_id,
            "title": _REGISTRY[rule_id].title,
            "rationale": " ".join(_REGISTRY[rule_id].rationale.split()),
            "example": _REGISTRY[rule_id].example,
        }
        for rule_id in _REGISTRY
    ]
    entries.extend(_PROJECT_CHECKS.values())
    return sorted(entries, key=lambda entry: entry["id"])


def _parse_rule_list(raw: str) -> Set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


@dataclass
class _SuppressionTable:
    """Parsed ``# repro-lint:`` directives of one file.

    ``file_wide`` maps each file-wide-suppressed id to the line its
    directive appears on (needed to *report* a stale directive);
    ``per_line`` maps line numbers to the ids suppressed on that line.
    """

    file_wide: Dict[str, int]
    per_line: Dict[int, Set[str]]

    @property
    def file_wide_ids(self) -> Set[str]:
        return set(self.file_wide)


def _directive_lines(source: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, text)`` for every *comment* mentioning repro-lint.

    Uses the token stream so directive syntax quoted inside docstrings
    and string literals (rule documentation, help text) is not mistaken
    for a live suppression.  Files the tokenizer cannot handle — the
    syntax-error case the engine must still report on — fall back to a
    raw line scan, where a stray in-string match only ever *silences*
    findings, never invents them.
    """
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "repro-lint" in line:
                yield lineno, line
        return
    for token in tokens:
        if token.type == tokenize.COMMENT and "repro-lint" in token.string:
            yield token.start[0], token.string


def _parse_suppressions(source: str) -> _SuppressionTable:
    """Extract the suppression table from one file's source."""
    file_wide: Dict[str, int] = {}
    per_line: Dict[int, Set[str]] = {}
    for lineno, text in _directive_lines(source):
        file_match = _SUPPRESS_FILE.search(text)
        if file_match:
            for rule_id in _parse_rule_list(file_match.group(1)):
                file_wide.setdefault(rule_id, lineno)
        line_match = _SUPPRESS_LINE.search(text)
        if line_match:
            per_line.setdefault(lineno, set()).update(
                _parse_rule_list(line_match.group(1))
            )
    return _SuppressionTable(file_wide=file_wide, per_line=per_line)


def _suppressed(
    violation: Violation,
    file_wide: Set[str],
    per_line: Dict[int, Set[str]],
) -> bool:
    lines = violation.chain_lines_in(violation.path) or {violation.line}
    scopes = [file_wide]
    scopes.extend(per_line.get(line, set()) for line in sorted(lines))
    for scope in scopes:
        if "all" in scope or violation.rule_id in scope:
            return True
    return False


def _select_rules(
    rules: Sequence[Rule],
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]],
) -> List[Rule]:
    chosen = list(rules)
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.id for rule in chosen}
        if unknown:
            raise ValueError(f"unknown rule ids in select: {sorted(unknown)}")
        chosen = [rule for rule in chosen if rule.id in wanted]
    if ignore is not None:
        dropped = set(ignore)
        chosen = [rule for rule in chosen if rule.id not in dropped]
    return chosen


def _ordered_walk(tree: ast.AST) -> Iterator[ast.AST]:
    """Depth-first, document-order walk (``ast.walk`` is breadth-first)."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


@dataclass
class FileReport:
    """Everything one per-file analysis pass learned about one file.

    ``findings`` are the raw, *pre-suppression* rule hits — the
    stale-suppression check needs them to decide whether a directive
    still earns its keep.  ``violations`` are the post-suppression
    results callers act on.
    """

    path: str
    source: str
    syntax_error: bool
    findings: List[Violation]
    violations: List[Violation]
    suppressions: _SuppressionTable

    def suppressed(self, violation: Violation) -> bool:
        """Whether this file's directives silence ``violation``."""
        return _suppressed(
            violation,
            self.suppressions.file_wide_ids,
            self.suppressions.per_line,
        )


def analyze_source_report(
    source: str,
    path: str = "<string>",
    *,
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> FileReport:
    """Run the per-file rule engine and return the full :class:`FileReport`.

    A file that does not parse yields a single
    :data:`SYNTAX_ERROR_RULE_ID` finding — a lint run must fail loudly
    on unparseable library code, not skip it.
    """
    active = _select_rules(all_rules() if rules is None else rules, select, ignore)
    return _file_report(path, source, _parse(source, path), active)


def _parse(source: str, path: str) -> Union[ast.Module, SyntaxError]:
    """The syntax tree of ``source``, or the error it fails to parse with."""
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        return exc


def _file_report(
    path: str,
    source: str,
    parsed: Union[ast.Module, SyntaxError],
    rules: Sequence[Rule],
) -> FileReport:
    """Run ``rules`` over one already-parsed file.

    The gate parses each file once and shares the tree with the project
    model; rules never mutate it (:class:`FileContext` keeps its parent
    links in its own dict).
    """
    table = _parse_suppressions(source)
    file_wide, per_line = table.file_wide_ids, table.per_line
    if isinstance(parsed, SyntaxError):
        violation = Violation(
            path=path,
            line=parsed.lineno or 1,
            col=(parsed.offset or 1) - 1,
            rule_id=SYNTAX_ERROR_RULE_ID,
            message=f"file does not parse: {parsed.msg}",
        )
        kept = (
            [] if _suppressed(violation, file_wide, per_line) else [violation]
        )
        return FileReport(
            path=path,
            source=source,
            syntax_error=True,
            findings=[violation],
            violations=kept,
            suppressions=table,
        )

    ctx = FileContext(path, source, parsed)
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        rule.begin_file(ctx)
        for node_type in rule.interests:
            dispatch.setdefault(node_type, []).append(rule)

    found: List[Violation] = []
    if dispatch:
        for node in _ordered_walk(parsed):
            for rule in dispatch.get(type(node), ()):
                found.extend(rule.visit(node, ctx))
    for rule in rules:
        found.extend(rule.finish_file(ctx))

    kept = [v for v in found if not _suppressed(v, file_wide, per_line)]
    return FileReport(
        path=path,
        source=source,
        syntax_error=False,
        findings=sorted(found),
        violations=sorted(kept),
        suppressions=table,
    )


def analyze_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Run the rule engine over one source string.

    Returns violations sorted by location; see
    :func:`analyze_source_report` for the pre-suppression view.
    """
    return analyze_source_report(
        source, path, rules=rules, select=select, ignore=ignore
    ).violations


def stale_suppressions(
    reports: Sequence[FileReport],
    project_findings: Sequence[Violation] = (),
    *,
    active_ids: Optional[Set[str]] = None,
) -> List[Violation]:
    """Report ``# repro-lint: disable=`` directives that suppress nothing.

    A per-line directive is *live* when some pre-suppression finding of
    that rule exists on that line (per-file findings or whole-program
    ``project_findings``); a file-wide directive is live when such a
    finding exists anywhere in the file.  Whole-program findings count
    at every location of their report ``chain`` as well as their primary
    line, so a justification written at either end of a reported call
    chain stays live.  Directives naming an id the engine does not know
    are always stale.  Ids outside ``active_ids`` (rules excluded from
    this run) are skipped — a partial run cannot judge them.  ``all`` is
    exempt: it is a deliberate sledgehammer.

    The resulting :data:`LINT_RULE_ID` violations are themselves subject
    to each file's suppression table.
    """
    known = known_rule_ids()
    #: path → rule id → line numbers where a finding of that rule lands
    #: (primary locations plus chain links, which may cross files).
    marks: Dict[str, Dict[str, Set[int]]] = {}

    def _mark(path: str, rule_id: str, line: int) -> None:
        marks.setdefault(path, {}).setdefault(rule_id, set()).add(line)

    for violation in project_findings:
        _mark(violation.path, violation.rule_id, violation.line)
        for chain_path, chain_line in violation.chain:
            _mark(chain_path, violation.rule_id, chain_line)

    stale: List[Violation] = []
    for report in reports:
        lines_by_rule: Dict[str, Set[int]] = {
            rule_id: set(lines)
            for rule_id, lines in marks.get(report.path, {}).items()
        }
        for finding in report.findings:
            lines_by_rule.setdefault(finding.rule_id, set()).add(finding.line)

        def assessable(rule_id: str) -> bool:
            if rule_id == "all":
                return False
            if rule_id not in known:
                return True  # unknown ids are always reportable
            return active_ids is None or rule_id in active_ids

        candidates: List[Tuple[int, str, bool]] = []
        for lineno, ids in sorted(report.suppressions.per_line.items()):
            for rule_id in sorted(ids):
                if not assessable(rule_id):
                    continue
                live = lineno in lines_by_rule.get(rule_id, set())
                if not live:
                    candidates.append((lineno, rule_id, False))
        for rule_id, lineno in sorted(report.suppressions.file_wide.items()):
            if not assessable(rule_id):
                continue
            if not lines_by_rule.get(rule_id):
                candidates.append((lineno, rule_id, True))

        for lineno, rule_id, file_wide in candidates:
            if rule_id not in known:
                detail = f"unknown rule id {rule_id!r}"
            elif file_wide:
                detail = (
                    f"disable-file={rule_id} suppresses no finding "
                    f"anywhere in this file"
                )
            else:
                detail = f"disable={rule_id} suppresses no finding on this line"
            violation = Violation(
                path=report.path,
                line=lineno,
                col=0,
                rule_id=LINT_RULE_ID,
                message=(
                    f"stale suppression: {detail}; delete the directive "
                    f"(or fix the id) so justifications cannot rot"
                ),
            )
            if not report.suppressed(violation):
                stale.append(violation)
    return sorted(stale)


def analyze_file(
    path: Union[str, Path],
    *,
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Analyze one Python file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return analyze_source(
        text, str(path), rules=rules, select=select, ignore=ignore
    )


def iter_python_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Expand files/directories into the Python files to analyze.

    Directories are walked recursively in sorted order; ``__pycache__``
    and hidden directories are skipped.  Missing paths raise
    ``FileNotFoundError`` — a CI gate pointed at a typo must not pass
    vacuously.
    """
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            yield root
        elif root.is_dir():
            for candidate in sorted(root.rglob("*.py")):
                parts = candidate.relative_to(root).parts
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in parts[:-1]
                ):
                    continue
                yield candidate
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Analyze every Python file under ``paths`` (files or directories)."""
    found: List[Violation] = []
    for file_path in iter_python_files(paths):
        found.extend(
            analyze_file(file_path, rules=rules, select=select, ignore=ignore)
        )
    return sorted(found)


register_project_check(
    LINT_RULE_ID,
    "stale suppression directive",
    """A # repro-lint: disable= comment that no longer matches any finding
    is a rotted justification: the code it excused has moved or been
    fixed, and the directive now silently masks future violations at
    that location.  Stale directives (and directives naming unknown rule
    ids) are reported so every suppression in the tree stays earned.""",
    example=(
        "x = compute()  # repro-lint: disable=REPRO-FLOAT001\n"
        "# ^ stale once the float comparison it excused is gone"
    ),
)
