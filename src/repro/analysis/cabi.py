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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "ABIMismatch",
    "CParameter",
    "CPrototype",
    "UnsupportedDeclarationError",
    "check_c_abi",
    "check_function",
    "ctype_for",
    "describe_ctype",
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
