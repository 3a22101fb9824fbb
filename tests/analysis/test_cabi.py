"""Tests for the sta_kernel.c / ctypes C-ABI cross-checker.

The mismatch tests seed deliberate skews — dropped arguments, wrong
pointer widths, float-for-double element types, wrong restype — and
assert the checker pinpoints each one.  The live test at the end checks
the repo's real contract.
"""

import ctypes

import pytest

from repro.analysis.cabi import (
    CParameter,
    UnsupportedDeclarationError,
    check_c_abi,
    check_function,
    ctype_for,
    describe_ctype,
    parse_c_prototypes,
)
from repro.timing import native

DEMO_SOURCE = """
/* A demo kernel covering the supported parameter subset. */
#include <stdint.h>

static void helper(double x) { (void)x; }

void demo_kernel(const double *values, const int64_t *index,
                 int64_t count, double scale) {
    for (int64_t i = 0; i < count; i++) {
        helper(values[index[i]] * scale);
    }
}

int32_t demo_status(void);
"""

DEMO_ARGTYPES = [
    ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_int64),
    ctypes.c_int64,
    ctypes.c_double,
]


def demo_check(argtypes=DEMO_ARGTYPES, restype=None, function="demo_kernel"):
    return check_c_abi(
        DEMO_SOURCE, function=function, argtypes=argtypes, restype=restype
    )


# ----------------------------------------------------------------------
# Prototype parsing.
# ----------------------------------------------------------------------
def test_parser_extracts_exported_functions_only():
    prototypes = parse_c_prototypes(DEMO_SOURCE)
    assert set(prototypes) == {"demo_kernel", "demo_status"}  # not helper


def test_parser_reads_parameters_in_order():
    proto = parse_c_prototypes(DEMO_SOURCE)["demo_kernel"]
    assert proto.return_spelling() == "void"
    assert [p.spelling() for p in proto.parameters] == [
        "double*",
        "int64_t*",
        "int64_t",
        "double",
    ]
    assert [p.name for p in proto.parameters] == [
        "values",
        "index",
        "count",
        "scale",
    ]


def test_parser_handles_header_style_prototype():
    proto = parse_c_prototypes(DEMO_SOURCE)["demo_status"]
    assert proto.return_spelling() == "int32_t"
    assert proto.parameters == ()


def test_parser_ignores_body_expressions_and_control_flow():
    # Nothing inside the indented for-loop body parses as a declaration.
    prototypes = parse_c_prototypes(DEMO_SOURCE)
    assert "for" not in prototypes
    assert "helper" not in prototypes


def test_parser_strips_comments_and_preprocessor():
    source = """
// void commented_out(int x);
/* void also_commented(double y) { } */
#define MACRO(x) void macro_fn(int x)
void real_fn(int flag);
"""
    assert set(parse_c_prototypes(source)) == {"real_fn"}


def test_parser_rejects_array_parameters():
    with pytest.raises(UnsupportedDeclarationError, match="array"):
        parse_c_prototypes("void f(double values[], int64_t n);\n")


def test_parser_never_matches_function_pointer_parameters():
    # Nested parens can't satisfy the declaration pattern, so a
    # function-pointer signature is simply not exported — the check
    # then fails loudly as missing-function rather than mis-parsing.
    assert parse_c_prototypes("void f(void (*callback)(int));\n") == {}


def test_parser_canonicalizes_multiword_types():
    proto = parse_c_prototypes("void f(unsigned long long n);\n")["f"]
    assert proto.parameters == (
        CParameter(base="unsigned long long", pointer_depth=0, name="n"),
    )


# ----------------------------------------------------------------------
# C type → ctypes mapping.
# ----------------------------------------------------------------------
def test_ctype_for_scalars_and_pointers():
    assert ctype_for("double", 0) is ctypes.c_double
    assert ctype_for("int64_t", 1) is ctypes.POINTER(ctypes.c_int64)
    assert ctype_for("void", 0) is None
    assert ctype_for("void", 1) is ctypes.c_void_p


def test_ctype_for_refuses_to_guess():
    with pytest.raises(UnsupportedDeclarationError, match="unknown C type"):
        ctype_for("struct_thing", 0)
    with pytest.raises(UnsupportedDeclarationError, match="multi-level"):
        ctype_for("double", 2)


def test_describe_ctype_names():
    assert describe_ctype(None) == "void"
    assert describe_ctype(ctypes.c_int64) == "c_long" or describe_ctype(
        ctypes.c_int64
    ).startswith("c_")
    assert describe_ctype(ctypes.POINTER(ctypes.c_double)) == (
        "POINTER(c_double)"
    )


# ----------------------------------------------------------------------
# Seeded mismatches: every skew class must be detected.
# ----------------------------------------------------------------------
def test_agreement_yields_no_mismatches():
    assert demo_check() == []


def test_detects_arity_skew():
    found = demo_check(argtypes=DEMO_ARGTYPES[:-1])
    assert [m.kind for m in found] == ["arity"]
    assert found[0].expected == "4" and found[0].actual == "3"


def test_detects_pointer_width_skew():
    skewed = list(DEMO_ARGTYPES)
    skewed[1] = ctypes.POINTER(ctypes.c_int32)  # C says int64_t*
    found = demo_check(argtypes=skewed)
    assert [(m.kind, m.index) for m in found] == [("param", 1)]
    assert "index" in found[0].message  # names the C parameter


def test_detects_element_dtype_skew():
    skewed = list(DEMO_ARGTYPES)
    skewed[0] = ctypes.POINTER(ctypes.c_float)  # C says double*
    found = demo_check(argtypes=skewed)
    assert [(m.kind, m.index) for m in found] == [("param", 0)]
    assert found[0].expected == "POINTER(c_double)"
    assert found[0].actual == "POINTER(c_float)"


def test_detects_scalar_passed_as_pointer():
    skewed = list(DEMO_ARGTYPES)
    skewed[2] = ctypes.POINTER(ctypes.c_int64)  # C says plain int64_t
    found = demo_check(argtypes=skewed)
    assert [(m.kind, m.index) for m in found] == [("param", 2)]


def test_detects_restype_skew():
    found = demo_check(restype=ctypes.c_int)  # C says void
    assert [m.kind for m in found] == ["restype"]


def test_detects_missing_function():
    found = demo_check(function="no_such_kernel")
    assert [m.kind for m in found] == ["missing-function"]
    assert "demo_kernel" in found[0].actual


def test_multiple_param_skews_all_reported():
    skewed = list(DEMO_ARGTYPES)
    skewed[0] = ctypes.POINTER(ctypes.c_float)
    skewed[3] = ctypes.c_float
    found = demo_check(argtypes=skewed)
    assert [(m.kind, m.index) for m in found] == [("param", 0), ("param", 3)]


def test_mismatch_rendering_roundtrips():
    found = demo_check(argtypes=DEMO_ARGTYPES[:-1])
    line = found[0].format()
    assert "demo_kernel" in line and "arity" in line
    payload = found[0].to_dict()
    assert payload["kind"] == "arity" and payload["function"] == "demo_kernel"


def test_check_function_direct_call():
    proto = parse_c_prototypes(DEMO_SOURCE)["demo_kernel"]
    assert check_function(proto, DEMO_ARGTYPES, None) == []


# ----------------------------------------------------------------------
# The live contract: sta_kernel.c vs repro.timing.native.
# ----------------------------------------------------------------------
def test_live_kernel_abi_agrees():
    assert check_c_abi() == []


def test_live_kernel_detects_seeded_skew():
    # Corrupt one entry of the real declaration: the checker must notice.
    argtypes = native.kernel_argtypes()
    argtypes[0] = ctypes.POINTER(ctypes.c_float)
    found = check_c_abi(argtypes=argtypes, restype=native.KERNEL_RESTYPE)
    assert [(m.kind, m.index) for m in found] == [("param", 0)]


def test_live_kernel_detects_seeded_arity_skew():
    argtypes = native.kernel_argtypes()[:-1]
    found = check_c_abi(argtypes=argtypes, restype=native.KERNEL_RESTYPE)
    assert [m.kind for m in found] == ["arity"]


def test_live_registry_has_one_entry_point():
    registry = native.kernel_abi()
    assert list(registry) == [native.KERNEL_FUNCTION] == ["sta_eval_gates_mt"]
    # The signature ends with the worker count.
    argtypes, restype = registry[native.KERNEL_FUNCTION]
    assert argtypes == native.kernel_argtypes()
    assert argtypes[-1] is ctypes.c_int64
    assert restype is native.KERNEL_RESTYPE


def test_live_mt_kernel_detects_seeded_skew():
    # Corrupt the trailing num_threads argument: the registry-aware
    # checker must localize the skew to that parameter.
    argtypes = native.kernel_argtypes()
    argtypes[-1] = ctypes.c_int32  # C says int64_t
    found = check_c_abi(
        function=native.KERNEL_FUNCTION,
        argtypes=argtypes,
        restype=native.KERNEL_RESTYPE,
    )
    assert [(m.function, m.kind, m.index) for m in found] == [
        (native.KERNEL_FUNCTION, "param", len(argtypes) - 1)
    ]


def test_live_unknown_function_reported_not_raised():
    found = check_c_abi(function="sta_eval_gates_gpu")
    assert [m.kind for m in found] == ["missing-function"]
    assert "not a registered kernel entry point" in found[0].message


def test_missing_source_reported_not_raised(tmp_path):
    found = check_c_abi(
        source_path=tmp_path / "gone.c",
        function=native.KERNEL_FUNCTION,
    )
    assert [m.kind for m in found] == ["missing-function"]
    assert "cannot read" in found[0].message
