"""C-ABI cross-checker: ``sta_kernel.c`` prototypes vs ctypes declarations.

The native STA hot path is a C function loaded with :mod:`ctypes`; the
only thing connecting the C parameter list in
``repro/timing/sta_kernel.c`` to the ``argtypes`` list in
:mod:`repro.timing.native` is programmer discipline.  A skewed edit —
one argument added on one side, an ``int32_t`` where ctypes says
``c_int64``, a ``double*`` passed as ``double`` — does not crash the
build; it silently misreads memory in the kernel and corrupts timing
results.

This module closes that gap statically.  :func:`parse_c_prototypes` is a
deliberately small parser for the subset of C that an exported kernel
signature uses (scalar and single-pointer parameters of fixed-width
``stdint`` / floating types); anything outside that subset is reported
as ``unsupported`` rather than guessed at.  :func:`check_c_abi` compares
the parsed prototype against the live ctypes declaration and returns a
list of :class:`ABIMismatch` — empty means the two sides agree on
arity, every parameter's width and kind, and the return type.
"""

from __future__ import annotations

import ctypes
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.symbolic import Poly, SymbolicError, parse_expr, prove_ge

__all__ = [
    "ABIMismatch",
    "BufferObligation",
    "CParameter",
    "CPrototype",
    "KernelLoopBound",
    "UnsupportedDeclarationError",
    "check_c_abi",
    "check_function",
    "ctype_for",
    "describe_ctype",
    "kernel_buffer_obligations",
    "kernel_loop_bounds",
    "parse_c_prototypes",
]


class UnsupportedDeclarationError(ValueError):
    """A declaration uses C constructs outside the checkable subset."""


@dataclass(frozen=True)
class CParameter:
    """One parsed C parameter: canonical base type + pointer depth."""

    base: str
    pointer_depth: int
    name: str

    def spelling(self) -> str:
        """Canonical C spelling, e.g. ``"int64_t*"``."""
        return self.base + "*" * self.pointer_depth


@dataclass(frozen=True)
class CPrototype:
    """One parsed exported C function."""

    name: str
    return_base: str
    return_pointer_depth: int
    parameters: Tuple[CParameter, ...]

    def return_spelling(self) -> str:
        """Canonical C spelling of the return type."""
        return self.return_base + "*" * self.return_pointer_depth


@dataclass(frozen=True)
class ABIMismatch:
    """One disagreement between the C prototype and the ctypes declaration.

    ``kind`` is one of ``"missing-function"``, ``"arity"``, ``"param"``,
    ``"restype"`` or ``"unsupported"``; ``index`` is the zero-based
    parameter index for ``"param"`` mismatches, else ``None``.
    """

    function: str
    kind: str
    expected: str
    actual: str
    message: str
    index: Optional[int] = None

    def format(self) -> str:
        """One-line human rendering."""
        location = (
            f"{self.function}[arg {self.index}]"
            if self.index is not None
            else self.function
        )
        return f"{location}: {self.kind}: {self.message}"

    def to_dict(self) -> Dict[str, Union[str, int, None]]:
        """JSON-serializable form."""
        return {
            "function": self.function,
            "kind": self.kind,
            "index": self.index,
            "expected": self.expected,
            "actual": self.actual,
            "message": self.message,
        }


# ----------------------------------------------------------------------
# C source → prototypes
# ----------------------------------------------------------------------
_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)
_PREPROCESSOR = re.compile(r"^[ \t]*#[^\n]*$", re.MULTILINE)
# Top-level C functions start at column 0 (K&R / kernel style, as in
# sta_kernel.c); anchoring there keeps expressions inside indented
# function bodies from ever looking like declarations.
_FUNCTION = re.compile(
    r"^(?P<head>[A-Za-z_][\w \t\*]*?)"  # return type tokens (one line)
    r"\b(?P<name>[A-Za-z_]\w*)[ \t]*"
    r"\((?P<params>[^()]*)\)\s*"
    r"(?:\{|;)",
    re.DOTALL | re.MULTILINE,
)
_TOKEN = re.compile(r"[A-Za-z_]\w*|\*")

#: Multi-token base types collapsed to one canonical spelling.
_CANONICAL_BASES = {
    ("unsigned", "int"): "unsigned int",
    ("unsigned", "long"): "unsigned long",
    ("unsigned", "long", "long"): "unsigned long long",
    ("long", "long"): "long long",
    ("unsigned", "char"): "unsigned char",
    ("signed", "char"): "signed char",
}

_KEYWORDS_DROPPED = {"const", "restrict", "volatile", "register", "static", "inline", "extern"}


def _split_type_tokens(tokens: Sequence[str], what: str) -> Tuple[str, int]:
    """Collapse declaration tokens into (canonical base, pointer depth)."""
    pointer_depth = sum(1 for token in tokens if token == "*")
    base_tokens = [
        token
        for token in tokens
        if token != "*" and token not in _KEYWORDS_DROPPED
    ]
    if not base_tokens:
        raise UnsupportedDeclarationError(f"{what}: no base type in {tokens!r}")
    base = _CANONICAL_BASES.get(tuple(base_tokens))
    if base is None:
        if len(base_tokens) != 1:
            raise UnsupportedDeclarationError(
                f"{what}: unsupported compound type {' '.join(base_tokens)!r}"
            )
        base = base_tokens[0]
    return base, pointer_depth


def _parse_parameter(raw: str, index: int) -> Optional[CParameter]:
    tokens = _TOKEN.findall(raw)
    if not tokens:
        raise UnsupportedDeclarationError(f"empty parameter {index}")
    if tokens == ["void"]:
        return None
    # The trailing identifier is the parameter name unless the parameter
    # is unnamed (pure type declaration, as in a header prototype).
    name = ""
    type_tokens = list(tokens)
    known_type_words = (
        set(_ctypes_base_map()) | _KEYWORDS_DROPPED | {"unsigned", "signed", "long"}
    )
    if (
        len(type_tokens) > 1
        and type_tokens[-1] != "*"
        and type_tokens[-1] not in known_type_words
    ):
        name = type_tokens.pop()
    base, depth = _split_type_tokens(type_tokens, f"parameter {index}")
    return CParameter(base=base, pointer_depth=depth, name=name)


def parse_c_prototypes(source: str) -> Dict[str, CPrototype]:
    """Parse every exported function declaration/definition in ``source``.

    Comments and preprocessor lines are stripped first; each remaining
    ``ret name(params) {`` or ``...;`` is parsed into a
    :class:`CPrototype`.  ``static`` functions are skipped (not part of
    the ABI).  Raises :class:`UnsupportedDeclarationError` on constructs
    outside the supported subset (function pointers, compound types
    beyond the stdint/floating set, arrays).
    """
    text = _PREPROCESSOR.sub("", _COMMENT.sub(" ", source))
    prototypes: Dict[str, CPrototype] = {}
    for match in _FUNCTION.finditer(text):
        head_tokens = _TOKEN.findall(match.group("head"))
        if not head_tokens:
            continue
        if "static" in head_tokens:
            continue
        # Reject control-flow false positives (`if (...) {`, `for (...)`).
        if head_tokens[-1] in ("if", "for", "while", "switch", "return", "sizeof"):
            continue
        name = match.group("name")
        if name in ("if", "for", "while", "switch", "return", "sizeof"):
            continue
        return_base, return_depth = _split_type_tokens(
            head_tokens, f"return type of {name}"
        )
        params_text = match.group("params").strip()
        parameters: List[CParameter] = []
        if params_text:
            if "(" in params_text or "[" in params_text:
                raise UnsupportedDeclarationError(
                    f"{name}: function-pointer or array parameters are "
                    f"outside the checkable subset"
                )
            for index, raw in enumerate(params_text.split(",")):
                parameter = _parse_parameter(raw, index)
                if parameter is not None:
                    parameters.append(parameter)
        prototypes[name] = CPrototype(
            name=name,
            return_base=return_base,
            return_pointer_depth=return_depth,
            parameters=tuple(parameters),
        )
    return prototypes


# ----------------------------------------------------------------------
# C types → ctypes
# ----------------------------------------------------------------------
def _ctypes_base_map() -> Dict[str, Optional[type]]:
    return {
        "void": None,
        "char": ctypes.c_char,
        "signed char": ctypes.c_byte,
        "unsigned char": ctypes.c_ubyte,
        "short": ctypes.c_short,
        "int": ctypes.c_int,
        "unsigned int": ctypes.c_uint,
        "long": ctypes.c_long,
        "unsigned long": ctypes.c_ulong,
        "long long": ctypes.c_longlong,
        "unsigned long long": ctypes.c_ulonglong,
        "float": ctypes.c_float,
        "double": ctypes.c_double,
        "size_t": ctypes.c_size_t,
        "ssize_t": ctypes.c_ssize_t,
        "int8_t": ctypes.c_int8,
        "uint8_t": ctypes.c_uint8,
        "int16_t": ctypes.c_int16,
        "uint16_t": ctypes.c_uint16,
        "int32_t": ctypes.c_int32,
        "uint32_t": ctypes.c_uint32,
        "int64_t": ctypes.c_int64,
        "uint64_t": ctypes.c_uint64,
    }


def ctype_for(base: str, pointer_depth: int) -> Optional[type]:
    """The ctypes type a C ``base`` + pointer depth marshals as.

    ``void`` → ``None`` (restype only); ``void*`` → ``c_void_p``;
    ``T*`` → ``POINTER(T)``.  Raises
    :class:`UnsupportedDeclarationError` for unknown bases or pointer
    depth > 1 (the kernel ABI never needs them, so the checker refuses
    to guess).
    """
    mapping = _ctypes_base_map()
    if base not in mapping:
        raise UnsupportedDeclarationError(f"unknown C type {base!r}")
    if pointer_depth == 0:
        return mapping[base]
    if pointer_depth > 1:
        raise UnsupportedDeclarationError(
            f"{base}{'*' * pointer_depth}: multi-level pointers are outside "
            f"the checkable subset"
        )
    if base == "void":
        return ctypes.c_void_p
    scalar = mapping[base]
    assert scalar is not None
    return ctypes.POINTER(scalar)


def describe_ctype(ctype: Optional[type]) -> str:
    """Stable human name for a ctypes type (``None`` → ``"void"``)."""
    if ctype is None:
        return "void"
    name = getattr(ctype, "__name__", repr(ctype))
    if name.startswith("LP_"):
        return f"POINTER({name[3:]})"
    return name


# ----------------------------------------------------------------------
# The cross-check
# ----------------------------------------------------------------------
def check_function(
    prototype: CPrototype,
    argtypes: Sequence[Optional[type]],
    restype: Optional[type],
) -> List[ABIMismatch]:
    """Compare one C prototype with one ctypes declaration.

    Checks, in order: return type, arity, then each parameter's exact
    ctypes identity (pointer-ness, width and signedness all collapse
    into the ctypes type object, so ``is``-comparison catches pointer
    width, element dtype and scalar/pointer confusion alike).
    """
    found: List[ABIMismatch] = []
    name = prototype.name

    try:
        expected_restype = ctype_for(
            prototype.return_base, prototype.return_pointer_depth
        )
    except UnsupportedDeclarationError as exc:
        return [
            ABIMismatch(
                function=name,
                kind="unsupported",
                expected=prototype.return_spelling(),
                actual=describe_ctype(restype),
                message=str(exc),
            )
        ]
    if expected_restype is not restype:
        found.append(
            ABIMismatch(
                function=name,
                kind="restype",
                expected=describe_ctype(expected_restype),
                actual=describe_ctype(restype),
                message=(
                    f"C declares return type {prototype.return_spelling()!r} "
                    f"({describe_ctype(expected_restype)}) but ctypes "
                    f"restype is {describe_ctype(restype)}"
                ),
            )
        )

    if len(prototype.parameters) != len(argtypes):
        found.append(
            ABIMismatch(
                function=name,
                kind="arity",
                expected=str(len(prototype.parameters)),
                actual=str(len(argtypes)),
                message=(
                    f"C prototype has {len(prototype.parameters)} "
                    f"parameter(s) but ctypes argtypes lists "
                    f"{len(argtypes)} — the call would smash the stack "
                    f"or read garbage"
                ),
            )
        )
        return found

    for index, (parameter, argtype) in enumerate(
        zip(prototype.parameters, argtypes)
    ):
        try:
            expected = ctype_for(parameter.base, parameter.pointer_depth)
        except UnsupportedDeclarationError as exc:
            found.append(
                ABIMismatch(
                    function=name,
                    kind="unsupported",
                    index=index,
                    expected=parameter.spelling(),
                    actual=describe_ctype(argtype),
                    message=str(exc),
                )
            )
            continue
        if expected is not argtype:
            label = f" ({parameter.name})" if parameter.name else ""
            found.append(
                ABIMismatch(
                    function=name,
                    kind="param",
                    index=index,
                    expected=describe_ctype(expected),
                    actual=describe_ctype(argtype),
                    message=(
                        f"parameter {index}{label}: C declares "
                        f"{parameter.spelling()!r} "
                        f"({describe_ctype(expected)}) but ctypes argtypes "
                        f"has {describe_ctype(argtype)}"
                    ),
                )
            )
    return found


def check_c_abi(
    c_source: Optional[str] = None,
    *,
    function: Optional[str] = None,
    argtypes: Optional[Sequence[Optional[type]]] = None,
    restype: Optional[type] = None,
    source_path: Optional[Union[str, Path]] = None,
) -> List[ABIMismatch]:
    """Cross-check the native kernel ABI; empty list means agreement.

    With no arguments, checks the repo's real contract: *every* exported
    entry point registered in :func:`repro.timing.native.kernel_abi`
    (the one ``sta_eval_gates_mt``) against the prototypes parsed from
    ``repro/timing/sta_kernel.c``.  ``function`` narrows the check to
    one registry entry; ``argtypes`` / ``restype`` / ``c_source`` let
    tests inject either side to prove mismatch detection without
    touching the shipped kernel.
    """
    from repro.timing import native

    if argtypes is not None:
        contracts: List[
            Tuple[str, Sequence[Optional[type]], Optional[type]]
        ] = [(function or native.KERNEL_FUNCTION, argtypes, restype)]
    else:
        registry = native.kernel_abi()
        if function is not None:
            entry = registry.get(function)
            if entry is None:
                return [
                    ABIMismatch(
                        function=function,
                        kind="missing-function",
                        expected=function,
                        actual=", ".join(sorted(registry)),
                        message=(
                            f"function {function!r} is not a registered "
                            f"kernel entry point (registered: "
                            f"{', '.join(sorted(registry))})"
                        ),
                    )
                ]
            registry = {function: entry}
        contracts = [
            (name, entry_argtypes, entry_restype)
            for name, (entry_argtypes, entry_restype) in sorted(
                registry.items()
            )
        ]

    label = function or native.KERNEL_FUNCTION
    if c_source is None:
        path = Path(source_path) if source_path else native.kernel_source_path()
        try:
            c_source = path.read_text(encoding="utf-8")
        except OSError as exc:
            return [
                ABIMismatch(
                    function=label,
                    kind="missing-function",
                    expected=label,
                    actual="<unreadable C source>",
                    message=f"cannot read kernel source {path}: {exc}",
                )
            ]

    try:
        prototypes = parse_c_prototypes(c_source)
    except UnsupportedDeclarationError as exc:
        return [
            ABIMismatch(
                function=label,
                kind="unsupported",
                expected="parseable kernel declaration",
                actual=str(exc),
                message=f"cannot parse kernel source: {exc}",
            )
        ]

    found: List[ABIMismatch] = []
    for name, entry_argtypes, entry_restype in contracts:
        prototype = prototypes.get(name)
        if prototype is None:
            found.append(
                ABIMismatch(
                    function=name,
                    kind="missing-function",
                    expected=name,
                    actual=", ".join(sorted(prototypes))
                    or "<no exported functions>",
                    message=(
                        f"exported function {name!r} not found in kernel "
                        f"source (found: "
                        f"{', '.join(sorted(prototypes)) or 'none'})"
                    ),
                )
            )
            continue
        found.extend(check_function(prototype, entry_argtypes, entry_restype))
    return found


# ----------------------------------------------------------------------
# Loop bounds and buffer obligations (REPRO-SHAPE002 backend)
# ----------------------------------------------------------------------
# The prototype check above proves the two sides agree on *types*; the
# machinery below extracts what the kernel assumes about buffer
# *extents*, so the shape pass can prove the Python allocations dominate
# them.  Two channels feed each obligation:
#
# * loop bounds — ``for (int64_t i = 0; i < BOUND; ++i)`` headers plus
#   pointer arithmetic, followed interprocedurally through the static
#   helpers (direct calls and the ``mt_call`` struct hand-off), give a
#   closed-form minimum extent per pointer parameter where every index
#   is an affine expression of the entry point's scalar parameters;
# * annotations — the structured parameter comments the kernel already
#   carries (``/* >= 4*B doubles */``, ``/* (width, B) slot-major */``)
#   declare extents the loop analysis cannot derive (slot-indexed
#   arenas, the ``u`` matrix whose columns are data-dependent).
#
# Where both channels produce a closed form the annotation must dominate
# the loop-derived extent, otherwise the C source under-declares its own
# usage and the obligation is reported as underivable rather than
# trusted.  Anything outside the modelled subset (running counters,
# loads feeding indices, clamped locals) is refused with a reason — the
# shape pass reports those arguments distinctly instead of guessing.


@dataclass(frozen=True)
class KernelLoopBound:
    """One ``for`` header: ``variable`` iterates in ``[0, bound)``."""

    function: str
    variable: str
    bound: str


@dataclass(frozen=True)
class BufferObligation:
    """Minimum extent (in elements) one pointer parameter must provide.

    ``extent`` is a canonical polynomial string over the entry point's
    scalar parameter names plus any free caller-side symbols the
    annotation introduces (e.g. ``width``); ``None`` means the extent is
    not statically derivable and ``reason`` says why.  ``basis`` records
    which channel(s) produced the extent (``"loop-bounds"``,
    ``"annotation"`` or ``"loop-bounds+annotation"``).
    """

    function: str
    parameter: str
    index: int
    extent: Optional[str]
    basis: str
    reason: str = ""

    def free_symbols(self, scalar_parameters: Sequence[str]) -> List[str]:
        """Extent symbols that are not entry-point scalar parameters."""
        if self.extent is None:
            return []
        known = set(scalar_parameters)
        return [
            s for s in parse_expr(self.extent).symbols() if s not in known
        ]


@dataclass
class _Extent:
    """Either a closed-form polynomial extent or a refusal with reason."""

    poly: Optional[Poly]
    reason: str = ""

    @property
    def closed(self) -> bool:
        return self.poly is not None


def _data_dep(reason: str) -> _Extent:
    return _Extent(poly=None, reason=reason)


_ARROW = re.compile(r"(\w+)\s*->\s*(\w+)")
_FIELD_SEP = "__field__"


def _fold_arrows(text: str) -> str:
    """Rewrite ``c->field`` into a single identifier the parser accepts."""
    return _ARROW.sub(rf"\1{_FIELD_SEP}\2", text)


def _match_balanced(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index one past the delimiter closing ``text[start]``; -1 if none."""
    depth = 0
    for pos in range(start, len(text)):
        if text[pos] == open_ch:
            depth += 1
        elif text[pos] == close_ch:
            depth -= 1
            if depth == 0:
                return pos + 1
    return -1


def _split_top_commas(text: str) -> List[str]:
    """Split on commas not nested inside parentheses or brackets."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


@dataclass
class _CFunction:
    """One parsed function body (exported or static helper)."""

    name: str
    params: List[Tuple[str, bool]]  # (name, is_pointer) in order
    body: str
    loops: List[Tuple[str, str, int, int]] = field(default_factory=list)
    # (variable, bound expression, body start, body end) in source order


_FOR_HEADER = re.compile(
    r"for\s*\(\s*(?:const\s+)?(?:int64_t\s+|int\s+)?(\w+)\s*=\s*[^;]+;"
    r"\s*\1\s*<(=?)\s*([^;]+);"
)
_DECL_STMT = re.compile(
    r"(?:const\s+)?int64_t\s+(\w+(?:\s*=\s*[^;{]*)?(?:\s*,\s*\w+\s*=\s*[^;{]*)*)\s*;"
)
_PTR_DECL = re.compile(
    r"(?:const\s+)?(?:double|int64_t|void|char)\s*\*\s*(\w+)\s*=\s*([^;]+);"
)
_STRUCT_ASSIGN = re.compile(r"\b(\w+)\.(\w+)\s*=\s*([^;]+?)\s*;")
_INDEX_USE = re.compile(r"\b(\w+)\s*\[")
_MUTATION = re.compile(r"(\+\+|--)?\s*\b{name}\b\s*(\+\+|--|[-+*/]?=[^=])?")


def _parse_analysis_parameters(params_text: str) -> List[Tuple[str, bool]]:
    """Tolerant parameter parse: (name, is_pointer) pairs, in order.

    Unlike :func:`_parse_parameter` this accepts unknown base types
    (``mt_call``) because the extent analysis also walks static helpers
    that are not part of the ABI.
    """
    result: List[Tuple[str, bool]] = []
    stripped = params_text.strip()
    if not stripped or stripped == "void":
        return result
    for raw in _split_top_commas(stripped):
        tokens = _TOKEN.findall(raw)
        if not tokens:
            continue
        pointer = "*" in tokens
        names = [t for t in tokens if t not in _KEYWORDS_DROPPED and t != "*"]
        if not names:
            continue
        result.append((names[-1], pointer))
    return result


def _extract_functions(stripped: str) -> Dict[str, _CFunction]:
    """Every function *definition* (with body) in comment-stripped C."""
    functions: Dict[str, _CFunction] = {}
    for match in _FUNCTION.finditer(stripped):
        name = match.group("name")
        if name in ("if", "for", "while", "switch", "return", "sizeof"):
            continue
        brace = stripped.find("{", match.start("params"))
        if brace == -1 or not stripped[match.end() - 1] == "{":
            continue
        body_end = _match_balanced(stripped, match.end() - 1, "{", "}")
        if body_end == -1:
            continue
        body = stripped[match.end() : body_end - 1]
        function = _CFunction(
            name=name,
            params=_parse_analysis_parameters(match.group("params")),
            body=body,
        )
        for header in _FOR_HEADER.finditer(body):
            close = _match_balanced(body, body.find("(", header.start()), "(", ")")
            if close == -1:
                continue
            after = close
            while after < len(body) and body[after] in " \t\r\n":
                after += 1
            if after < len(body) and body[after] == "{":
                span_end = _match_balanced(body, after, "{", "}")
            else:
                span_end = body.find(";", after) + 1
            if span_end <= 0:
                continue
            bound_text = header.group(3).strip()
            if header.group(2) == "=":
                # ``v <= bound`` iterates one past the strict form.
                bound_text = f"({bound_text}) + 1"
            function.loops.append(
                (
                    header.group(1),
                    bound_text,
                    header.start(),
                    span_end,
                )
            )
        functions[name] = function
    return functions


class _ExtentAnalyzer:
    """Derives per-pointer extents for every function, interprocedurally.

    Pointer parameters of struct type are modelled through pseudo-roots
    named ``<param>__field__<field>`` so the ``mt_call`` hand-off in
    ``sta_eval_gates_mt`` resolves back to entry-point parameters.
    """

    def __init__(self, functions: Dict[str, _CFunction]):
        self.functions = functions
        self._memo: Dict[str, Dict[str, _Extent]] = {}
        self._in_progress: set = set()

    # -- helpers -------------------------------------------------------
    def _aliases(self, fn: _CFunction) -> Dict[str, Optional[Poly]]:
        """Local ``int64_t`` single-assignment aliases; ``None`` = tainted."""
        body = fn.body
        loop_header_regions = []
        for _, _, lo, _ in fn.loops:
            open_paren = body.find("(", lo)
            close = _match_balanced(body, open_paren, "(", ")")
            loop_header_regions.append((open_paren, close))
        aliases: Dict[str, Optional[Poly]] = {}
        scalars = {name for name, pointer in fn.params if not pointer}
        for match in _DECL_STMT.finditer(body):
            if any(lo <= match.start() < hi for lo, hi in loop_header_regions):
                continue
            for declarator in _split_top_commas(match.group(1)):
                if "=" not in declarator:
                    continue
                name, rhs = declarator.split("=", 1)
                name = name.strip()
                rhs = _fold_arrows(rhs.strip())
                if "[" in rhs or "(" in rhs and ")" in rhs and "/" in rhs:
                    aliases[name] = None
                    continue
                try:
                    aliases[name] = parse_expr(rhs)
                except SymbolicError:
                    aliases[name] = None
        # Invalidate aliases that are written again anywhere else.
        for name in list(aliases):
            pattern = re.compile(
                rf"(\+\+\s*{name}\b|\b{name}\s*\+\+|\b{name}\s*--|"
                rf"--\s*{name}\b|\b{name}\s*[-+*/]?=[^=])"
            )
            hits = 0
            for hit in pattern.finditer(body):
                if any(
                    lo <= hit.start() < hi for lo, hi in loop_header_regions
                ):
                    continue
                hits += 1
            if hits > 1:
                aliases[name] = None
        # Aliases may reference earlier aliases; resolve one level deep
        # repeatedly until stable (the kernel never chains deeper).
        for _ in range(4):
            changed = False
            for name, poly in list(aliases.items()):
                if poly is None:
                    continue
                for sym in poly.symbols():
                    if sym in aliases and sym not in scalars:
                        inner = aliases[sym]
                        if inner is None:
                            aliases[name] = None
                        else:
                            aliases[name] = poly.substitute(sym, inner)
                        changed = True
                        break
            if not changed:
                break
        return aliases

    def _resolve_expr(
        self,
        text: str,
        fn: _CFunction,
        aliases: Dict[str, Optional[Poly]],
        position: int,
    ) -> _Extent:
        """Parse an index/offset expression at ``position`` in the body.

        Loop variables whose loop body encloses ``position`` are
        substituted with ``bound - 1`` (their maximum value); aliases
        are inlined; struct-field reads stay symbolic for the caller to
        resolve.  Loads, calls and tainted locals refuse with a reason.
        """
        folded = _fold_arrows(text.strip())
        if "[" in folded:
            load = _INDEX_USE.search(folded)
            source = load.group(1) if load else "memory"
            return _data_dep(f"index loads from {source}[]")
        try:
            poly = parse_expr(folded)
        except SymbolicError:
            return _data_dep(
                f"expression {text.strip()!r} is not affine in the kernel "
                f"parameters"
            )
        scalars = {name for name, pointer in fn.params if not pointer}
        enclosing = {
            var: bound
            for var, bound, lo, hi in fn.loops
            if lo <= position < hi
        }
        for sym in poly.symbols():
            if _FIELD_SEP in sym or sym in scalars:
                continue
            if sym in enclosing:
                bound_extent = self._resolve_expr(
                    enclosing[sym], fn, aliases, position
                )
                if not bound_extent.closed or bound_extent.poly is None:
                    return _data_dep(
                        f"loop bound {enclosing[sym]!r} for {sym!r}: "
                        f"{bound_extent.reason}"
                    )
                negative = any(
                    coeff < 0
                    for monomial, coeff in poly.terms.items()
                    if sym in monomial
                )
                if negative:
                    return _data_dep(
                        f"index decreases in loop variable {sym!r}"
                    )
                poly = poly.substitute(
                    sym, bound_extent.poly - Poly.const(1)
                )
                continue
            if sym in aliases:
                inner = aliases[sym]
                if inner is None:
                    return _data_dep(
                        f"local {sym!r} is reassigned or not affine"
                    )
                poly = poly.substitute(sym, inner)
                continue
            return _data_dep(f"unknown symbol {sym!r} in index expression")
        # Substituted aliases/bounds may themselves contain loop vars or
        # further aliases; one more pass settles the kernel's cases.
        unresolved = [
            s
            for s in poly.symbols()
            if _FIELD_SEP not in s
            and s not in {name for name, pointer in fn.params if not pointer}
        ]
        if unresolved:
            inner = self._resolve_expr(
                poly.format(), fn, aliases, position
            )
            if poly.format() != text.strip():
                return inner
            return _data_dep(
                f"unresolved symbols {unresolved} in index expression"
            )
        return _Extent(poly=poly)

    # -- the per-function analysis ------------------------------------
    def extents(self, name: str) -> Dict[str, _Extent]:
        """Minimum extents for ``name``'s pointer roots.

        Keys are pointer parameter names, or
        ``<param>__field__<field>`` pseudo-roots for struct-pointer
        parameters.  Polynomials range over the function's own scalar
        parameter names and struct-field pseudo-symbols.
        """
        if name in self._memo:
            return self._memo[name]
        if name in self._in_progress or name not in self.functions:
            return {}
        self._in_progress.add(name)
        try:
            result = self._compute_extents(self.functions[name])
        finally:
            self._in_progress.discard(name)
        self._memo[name] = result
        return result

    def _compute_extents(self, fn: _CFunction) -> Dict[str, _Extent]:
        body = fn.body
        aliases = self._aliases(fn)
        pointer_params = {p for p, is_ptr in fn.params if is_ptr}
        contributions: Dict[str, List[_Extent]] = {}

        def contribute(root: str, extent: _Extent) -> None:
            contributions.setdefault(root, []).append(extent)

        # Derived pointers: name -> (root, offset extent at decl site).
        derived: Dict[str, Tuple[str, _Extent, int]] = {}
        struct_params = {
            p for p, is_ptr in fn.params if is_ptr and p not in pointer_params
        }
        del struct_params

        def resolve_pointer(
            text: str, position: int
        ) -> Optional[Tuple[str, _Extent]]:
            """Map a pointer expression to (root, offset extent)."""
            folded = _fold_arrows(text.strip())
            base, offset = folded, ""
            plus = folded.find("+")
            if plus != -1:
                base, offset = folded[:plus].strip(), folded[plus + 1 :].strip()
            if base.startswith("&"):
                return None
            if base in derived:
                root, base_offset, _ = derived[base]
                tail = (
                    self._resolve_expr(offset, fn, aliases, position)
                    if offset
                    else _Extent(poly=Poly.const(0))
                )
                if not base_offset.closed or base_offset.poly is None:
                    return root, base_offset
                if not tail.closed or tail.poly is None:
                    return root, tail
                return root, _Extent(poly=base_offset.poly + tail.poly)
            root = base.split(_FIELD_SEP)[0] if _FIELD_SEP in base else base
            if root not in pointer_params:
                return None
            key = base if _FIELD_SEP in base else root
            tail = (
                self._resolve_expr(offset, fn, aliases, position)
                if offset
                else _Extent(poly=Poly.const(0))
            )
            return key, tail

        # Pass 1: derived pointer declarations, in order.
        for match in _PTR_DECL.finditer(body):
            resolved = resolve_pointer(match.group(2), match.start())
            if resolved is not None:
                derived[match.group(1)] = (
                    resolved[0],
                    resolved[1],
                    match.start(),
                )

        # Pass 2: direct index uses.
        for match in _INDEX_USE.finditer(body):
            target = match.group(1)
            close = _match_balanced(body, body.find("[", match.start()), "[", "]")
            if close == -1:
                continue
            index_text = body[body.find("[", match.start()) + 1 : close - 1]
            root: Optional[str] = None
            offset: _Extent = _Extent(poly=Poly.const(0))
            if target in derived:
                root, offset, _ = derived[target]
            elif target in pointer_params:
                root = target
            if root is None:
                continue
            index_extent = self._resolve_expr(
                index_text, fn, aliases, match.start()
            )
            if not offset.closed or offset.poly is None:
                contribute(root, offset)
            elif not index_extent.closed or index_extent.poly is None:
                contribute(root, index_extent)
            else:
                contribute(
                    root,
                    _Extent(
                        poly=offset.poly + index_extent.poly + Poly.const(1)
                    ),
                )

        # Pass 3: calls into known functions.
        struct_fields = self._struct_field_map(fn)
        for callee_name, callee in self.functions.items():
            if callee_name == fn.name:
                continue
            for match in re.finditer(rf"\b{callee_name}\s*\(", body):
                close = _match_balanced(
                    body, body.find("(", match.start()), "(", ")"
                )
                if close == -1:
                    continue
                args_text = body[body.find("(", match.start()) + 1 : close - 1]
                self._apply_call(
                    fn,
                    aliases,
                    callee,
                    _split_top_commas(args_text),
                    match.start(),
                    resolve_pointer,
                    contribute,
                    struct_fields,
                )

        return {
            root: self._merge(fn.name, root, extents)
            for root, extents in sorted(contributions.items())
        }

    def _struct_field_map(self, fn: _CFunction) -> Dict[str, Dict[str, str]]:
        """``var -> field -> assigned expression`` for local structs."""
        fields: Dict[str, Dict[str, str]] = {}
        for match in _STRUCT_ASSIGN.finditer(fn.body):
            var, field_name, expr = match.groups()
            per_var = fields.setdefault(var, {})
            if field_name in per_var and per_var[field_name] != expr.strip():
                per_var[field_name] = ""  # conflicting assignments: refuse
            else:
                per_var.setdefault(field_name, expr.strip())
        return fields

    def _apply_call(
        self,
        fn: _CFunction,
        aliases: Dict[str, Optional[Poly]],
        callee: _CFunction,
        args: List[str],
        position: int,
        resolve_pointer: object,
        contribute: object,
        struct_fields: Dict[str, Dict[str, str]],
    ) -> None:
        """Propagate one call's extents back onto the caller's roots."""
        callee_extents = self.extents(callee.name)
        if not callee_extents:
            return
        if len(args) != len(callee.params):
            return
        actual_of = {
            param: args[i] for i, (param, _) in enumerate(callee.params)
        }

        def scalar_actual(symbol: str) -> _Extent:
            """The caller-side polynomial for one callee extent symbol."""
            if _FIELD_SEP in symbol:
                struct_param, field_name = symbol.split(_FIELD_SEP, 1)
                holder = actual_of.get(struct_param, "")
                if not holder.startswith("&"):
                    return _data_dep(
                        f"struct argument {holder!r} is not a local struct"
                    )
                var = holder[1:].strip()
                expr = struct_fields.get(var, {}).get(field_name, "")
                if not expr:
                    return _data_dep(
                        f"struct field {field_name!r} has no single "
                        f"resolvable assignment"
                    )
                return self._resolve_expr(expr, fn, aliases, position)
            actual = actual_of.get(symbol)
            if actual is None:
                return _data_dep(f"no actual for callee symbol {symbol!r}")
            return self._resolve_expr(actual, fn, aliases, position)

        for callee_root, extent in callee_extents.items():
            # Which caller expression backs this callee pointer root?
            if _FIELD_SEP in callee_root:
                struct_param, field_name = callee_root.split(_FIELD_SEP, 1)
                holder = actual_of.get(struct_param, "")
                if not holder.startswith("&"):
                    continue
                var = holder[1:].strip()
                pointer_text = struct_fields.get(var, {}).get(field_name, "")
                if not pointer_text:
                    continue
            else:
                pointer_text = actual_of.get(callee_root, "")
                if not pointer_text:
                    continue
            resolved = resolve_pointer(pointer_text, position)  # type: ignore[operator]
            if resolved is None:
                continue
            caller_root, offset = resolved
            if not extent.closed or extent.poly is None:
                contribute(caller_root, extent)  # type: ignore[operator]
                continue
            substituted: Optional[Poly] = extent.poly
            failure: Optional[_Extent] = None
            assert substituted is not None
            for symbol in substituted.symbols():
                actual_extent = scalar_actual(symbol)
                if not actual_extent.closed or actual_extent.poly is None:
                    failure = actual_extent
                    break
                negative = any(
                    coeff < 0
                    for monomial, coeff in substituted.terms.items()
                    if symbol in monomial
                )
                if negative:
                    failure = _data_dep(
                        f"extent decreases in callee symbol {symbol!r}"
                    )
                    break
                substituted = substituted.substitute(
                    symbol, actual_extent.poly
                )
            if failure is not None:
                contribute(caller_root, failure)  # type: ignore[operator]
                continue
            if not offset.closed or offset.poly is None:
                contribute(caller_root, offset)  # type: ignore[operator]
                continue
            contribute(  # type: ignore[operator]
                caller_root, _Extent(poly=offset.poly + substituted)
            )

    @staticmethod
    def _merge(function: str, root: str, extents: List[_Extent]) -> _Extent:
        """Fold contributions: refuse on any refusal, else symbolic max."""
        for extent in extents:
            if not extent.closed:
                return extent
        polys: List[Poly] = []
        for extent in extents:
            assert extent.poly is not None
            if extent.poly not in polys:
                polys.append(extent.poly)
        maximal: List[Poly] = []
        for candidate in polys:
            if any(
                prove_ge(other, candidate)
                for other in polys
                if other is not candidate
            ) and not all(
                prove_ge(candidate, other)
                for other in polys
                if other is not candidate
            ):
                continue
            maximal.append(candidate)
        # Deduplicate mutually-dominating (equal) survivors.
        survivors: List[Poly] = []
        for candidate in maximal:
            if not any(
                prove_ge(kept, candidate) and prove_ge(candidate, kept)
                for kept in survivors
            ):
                survivors.append(candidate)
        if len(survivors) != 1:
            return _data_dep(
                f"{function}: incomparable index bounds for {root!r}: "
                + ", ".join(sorted(p.format() for p in survivors))
            )
        return _Extent(poly=survivors[0])


# -- parameter annotations ---------------------------------------------
_ANNOTATION_EXTENT = re.compile(r">=\s*([^\s]+)\s+(?:doubles|entries|elements)\b")
_ANNOTATION_DIMS = re.compile(r"\(\s*(\w+)\s*,\s*(\w+)\s*\)")
_ANNOTATION_ALIAS = re.compile(r"^\s*(\w+)\s*:")
_LINE_COMMENT = re.compile(r"/\*(.*?)\*/", re.DOTALL)


def _raw_parameter_annotations(
    raw_source: str, prototype: CPrototype
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Per-parameter comment text and short-name aliases for one entry.

    Scans the raw (comment-preserving) source for the entry point's
    parameter list; each parameter picks up the trailing comment of the
    line it is declared on (shared comments annotate every parameter on
    the line).  Aliases come from ``/* B: ... */``-style comments on
    scalar parameters.
    """
    header = re.search(
        rf"(?m)^[A-Za-z_][\w \t\*]*\b{prototype.name}[ \t]*\(", raw_source
    )
    if header is None:
        return {}, {}
    open_paren = raw_source.find("(", header.start())
    depth = 0
    pos = open_paren
    in_comment = False
    close = -1
    while pos < len(raw_source):
        if in_comment:
            if raw_source.startswith("*/", pos):
                in_comment = False
                pos += 2
                continue
            pos += 1
            continue
        if raw_source.startswith("/*", pos):
            in_comment = True
            pos += 2
            continue
        char = raw_source[pos]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                close = pos
                break
        pos += 1
    if close == -1:
        return {}, {}
    # Extend to end-of-line so a comment trailing the closing paren
    # (``double *scratch)  /* >= 4*B doubles */``) still annotates the
    # final parameter on that line.
    line_end = raw_source.find("\n", close)
    if line_end == -1:
        line_end = len(raw_source)
    segment = raw_source[open_paren:line_end]
    annotations: Dict[str, str] = {}
    aliases: Dict[str, str] = {}
    param_names = [p.name for p in prototype.parameters if p.name]
    for line in segment.splitlines():
        comments = " ".join(
            c.strip() for c in _LINE_COMMENT.findall(line)
        ).strip()
        if not comments:
            continue
        code = _LINE_COMMENT.sub(" ", line)
        for name in param_names:
            if re.search(rf"\b{name}\b", code):
                annotations[name] = comments
                alias = _ANNOTATION_ALIAS.match(comments)
                if alias:
                    aliases[alias.group(1)] = name
    return annotations, aliases


def _annotation_extent(
    comment: str, aliases: Dict[str, str]
) -> Optional[Poly]:
    """Parse one annotation comment into an extent polynomial."""
    match = _ANNOTATION_EXTENT.search(comment)
    if match:
        try:
            return parse_expr(match.group(1)).rename(aliases)
        except SymbolicError:
            return None
    match = _ANNOTATION_DIMS.search(comment)
    if match:
        try:
            return (
                parse_expr(match.group(1)) * parse_expr(match.group(2))
            ).rename(aliases)
        except SymbolicError:
            return None
    return None


def _read_kernel_source(
    c_source: Optional[str], source_path: Optional[Union[str, Path]]
) -> str:
    if c_source is not None:
        return c_source
    from repro.timing import native

    path = Path(source_path) if source_path else native.kernel_source_path()
    return path.read_text(encoding="utf-8")


def kernel_loop_bounds(
    c_source: Optional[str] = None,
    *,
    source_path: Optional[Union[str, Path]] = None,
) -> Dict[str, Tuple[KernelLoopBound, ...]]:
    """``for``-loop bound expressions per kernel function.

    Keys cover every function with a body (exported entry points and
    the static helpers they delegate to); each bound is the raw — but
    comment-free — exclusive upper bound expression from the loop
    header.  This is the raw material the buffer-obligation derivation
    consumes; it is exposed separately so tests and tooling can assert
    the parser sees the loops it should.
    """
    source = _read_kernel_source(c_source, source_path)
    stripped = _PREPROCESSOR.sub("", _COMMENT.sub(" ", source))
    result: Dict[str, Tuple[KernelLoopBound, ...]] = {}
    for name, function in sorted(_extract_functions(stripped).items()):
        result[name] = tuple(
            KernelLoopBound(function=name, variable=var, bound=bound)
            for var, bound, _, _ in function.loops
        )
    return result


def kernel_buffer_obligations(
    c_source: Optional[str] = None,
    *,
    source_path: Optional[Union[str, Path]] = None,
) -> Dict[str, Dict[str, BufferObligation]]:
    """Minimum-extent obligations per exported entry point.

    For every pointer parameter of every exported (non-static) kernel
    function, combine the loop-derived extent with the declared
    parameter annotation.  The result maps entry-point name to
    parameter name to :class:`BufferObligation`; parameters whose
    extent is not derivable carry ``extent=None`` and a reason, and the
    shape pass reports them distinctly rather than guessing.
    """
    source = _read_kernel_source(c_source, source_path)
    stripped = _PREPROCESSOR.sub("", _COMMENT.sub(" ", source))
    functions = _extract_functions(stripped)
    analyzer = _ExtentAnalyzer(functions)
    prototypes = parse_c_prototypes(source)
    result: Dict[str, Dict[str, BufferObligation]] = {}
    for name, prototype in sorted(prototypes.items()):
        if name not in functions:
            continue
        annotations, aliases = _raw_parameter_annotations(source, prototype)
        extents = analyzer.extents(name)
        obligations: Dict[str, BufferObligation] = {}
        for index, parameter in enumerate(prototype.parameters):
            if parameter.pointer_depth != 1 or not parameter.name:
                continue
            loop_extent = extents.get(parameter.name)
            annotation_poly = _annotation_extent(
                annotations.get(parameter.name, ""), aliases
            )
            extent: Optional[str] = None
            basis = ""
            reason = ""
            if loop_extent is not None and loop_extent.closed:
                assert loop_extent.poly is not None
                if annotation_poly is not None:
                    if prove_ge(annotation_poly, loop_extent.poly):
                        extent = annotation_poly.format()
                        basis = "loop-bounds+annotation"
                    else:
                        reason = (
                            f"declared annotation "
                            f"{annotation_poly.format()!r} does not dominate "
                            f"loop-derived extent "
                            f"{loop_extent.poly.format()!r}"
                        )
                else:
                    extent = loop_extent.poly.format()
                    basis = "loop-bounds"
            elif annotation_poly is not None:
                extent = annotation_poly.format()
                basis = "annotation"
                if loop_extent is not None:
                    reason = loop_extent.reason
            else:
                reason = (
                    loop_extent.reason
                    if loop_extent is not None
                    else "no index bound or annotation found"
                )
            obligations[parameter.name] = BufferObligation(
                function=name,
                parameter=parameter.name,
                index=index,
                extent=extent,
                basis=basis,
                reason=reason,
            )
        result[name] = obligations
    return result
