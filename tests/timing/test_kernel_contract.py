"""The native kernel's runtime argument contract (``native.KERNEL_ARGS``).

Every call into ``sta_eval_gates_mt`` is checked against one declarative
table: dtype, C-contiguity, minimum extent and writeability of each
pointer argument, and the bounds of the model-id and net-column tables.
Each mutation below breaks one row and must raise
:class:`~repro.timing.native.KernelArgumentError` naming that argument
*before* the kernel runs — a fake kernel records calls, so no C compiler
is needed.  The first two mutations are textual edits of a copy of
``compiled.py`` (the same allocation bugs a static prover would have to
find); the rest corrupt a compiled program's tables or the per-block
projection and wire-scale rows at run time.  The table itself is checked
against the C prototype in ``sta_kernel.c``, and seeded edits of that
prototype must fail the check.
"""

import ctypes
import importlib.util
import itertools
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.timing.compiled as compiled
import repro.timing.sta as sta
from repro.circuit.generate import generate_circuit
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)
NUM_SAMPLES = 70
_MUTANT_IDS = itertools.count()
#: The pointer rows :class:`~repro.timing.native.BoundKernel` takes per call.
_PER_BLOCK = ("u", "r_scale", "c_scale")


class FakeKernel:
    """Stands in for the ctypes function: records calls, touches nothing."""

    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)


@pytest.fixture(scope="module")
def placed():
    netlist = generate_circuit(
        "contract", 60, 6, 4, num_dffs=8, seed=20080310
    )
    return netlist, place_netlist(netlist, DIE, seed=7)


@pytest.fixture()
def fake(monkeypatch):
    kernel = FakeKernel()
    monkeypatch.setattr(native, "load_kernel", lambda: kernel)
    # Several blocks per run, so per-block checks run more than once.
    monkeypatch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
    return kernel


def _samples(netlist, num_samples=NUM_SAMPLES, seed=3):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal((num_samples, netlist.num_gates)) * 0.1
        for name in STATISTICAL_PARAMETERS
    }


def _mutant_program_class(monkeypatch, tmp_path: Path, old: str, new: str):
    """``CompiledTimingProgram`` from a copy of compiled.py with one edit."""
    source = Path(compiled.__file__).read_text(encoding="utf-8")
    assert old in source, f"mutation anchor not found: {old!r}"
    target = tmp_path / "compiled_mutant.py"
    target.write_text(source.replace(old, new), encoding="utf-8")
    spec = importlib.util.spec_from_file_location(
        f"compiled_mutant_{next(_MUTANT_IDS)}", target
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.CompiledTimingProgram


def _expect_violation(fake, engine, argument, threads=1, **kwargs):
    samples = _samples(engine.netlist)
    with pytest.raises(native.KernelArgumentError) as info:
        engine.run(
            samples, engine="compiled", native_threads=threads, **kwargs
        )
    assert info.value.argument == argument
    assert repr(argument) in str(info.value)
    assert fake.calls == [], "kernel entered despite a contract violation"


# ----------------------------------------------------------------------
# The table itself, against the C prototype.
# ----------------------------------------------------------------------
#: The only C parameter types the kernel uses, as ctypes types.
_C_TYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}

#: Seeded edits of the prototype; each must fail the check, with this
#: fragment in the failure message.
_PROTOTYPE_MUTATIONS = {
    "drop-parameter": ("const double *dff_m2, ", "", "parameter names"),
    "drop-first-parameter": ("int64_t num_rows,", "", "parameter names"),
    "int32-for-int64": (
        "int64_t num_threads",
        "int32_t num_threads",
        "unmapped C type",
    ),
    "int32-for-int64-pointer": (
        "const int64_t *g_id",
        "const int32_t *g_id",
        "unmapped C type",
    ),
    "int64-for-double-pointer": (
        "const double *g_bd",
        "const int64_t *g_bd",
        "types differ",
    ),
    "float-pointer-for-first-parameter": (
        "int64_t num_rows",
        "float *num_rows",
        "unmapped C type",
    ),
    "double-for-pointer": ("double *scratch", "double scratch", "types"),
    "renamed-parameter": ("g_ssl", "g_slew", "parameter names"),
    "input-loses-const": ("const double *p_wd", "double *p_wd", "outputs"),
    "scale-loses-const": (
        "const double *r_scale",
        "double *r_scale",
        "outputs",
    ),
    "double-for-column-table": (
        "const int64_t *p_col",
        "const double *p_col",
        "types differ",
    ),
    "drop-wire-parameter": ("const double *p_rc, ", "", "parameter names"),
    "non-void-return": (
        f"void {native.KERNEL_FUNCTION}(",
        f"int {native.KERNEL_FUNCTION}(",
        "returns",
    ),
}


def _kernel_source():
    return native.kernel_source_path().read_text(encoding="utf-8")


def _strip_comments(source):
    return re.sub(r"/\*.*?\*/|//[^\n]*", " ", source, flags=re.DOTALL)


def _check_c_prototype(source):
    """Assert that the kernel's C definition matches ``KERNEL_ARGS``.

    Comments are stripped and the one prototype is read with a regex.
    Checked: the return type is ``void``; names in order (so arity);
    ``int64_t``/``double`` map to ``c_int64``/``c_double``, one ``*`` to
    ``POINTER``; the non-``const`` pointers are exactly the writeable
    rows.  A parameter or type the regex cannot map fails the check.
    Returns the ctypes types read from the C parameters, in order.
    """
    text = _strip_comments(source)
    match = re.search(
        rf"\b(\w+)\s+{native.KERNEL_FUNCTION}\s*\(([^)]*)\)\s*{{", text
    )
    assert match, f"no definition of {native.KERNEL_FUNCTION}"
    restype, raw_params = match.groups()
    assert restype == "void" and native.KERNEL_RESTYPE is None, (
        f"{native.KERNEL_FUNCTION} returns {restype!r}, the table void"
    )
    names, ctypes_, outputs = [], [], []
    for raw in raw_params.split(","):
        decl = re.fullmatch(r"\s*(const\s+)?(\w+)\s*(\*?)\s*(\w+)\s*", raw)
        assert decl, f"unreadable C parameter {raw.strip()!r}"
        const, base, star, name = decl.groups()
        assert base in _C_TYPES, f"unmapped C type {base!r} of {name!r}"
        names.append(name)
        ctypes_.append(ctypes.POINTER(_C_TYPES[base]) if star else _C_TYPES[base])
        if star and not const:
            outputs.append(name)
    table = native.KERNEL_ARGS
    assert names == [arg.name for arg in table], (
        f"parameter names differ: C {names}, table {[a.name for a in table]}"
    )
    assert ctypes_ == [arg.ctype for arg in table], "parameter types differ"
    assert outputs == [arg.name for arg in table if arg.writeable], (
        f"non-const pointers {outputs} are not the writeable (outputs) rows"
    )
    return ctypes_


def test_table_names_and_order_match_the_c_prototype():
    _check_c_prototype(_kernel_source())


def test_kernel_argtypes_match_the_c_prototype():
    assert native.kernel_argtypes() == _check_c_prototype(_kernel_source())
    assert native.KERNEL_RESTYPE is None


def test_source_exports_one_entry_point():
    text = _strip_comments(_kernel_source())
    # File-scope definitions start in column 0; static ones are private.
    exported = re.findall(
        r"^(?!static\b|typedef\b)\w[\w\s*]*?\b(\w+)\s*\(", text, re.MULTILINE
    )
    assert exported == [native.KERNEL_FUNCTION] == ["sta_eval_gates_mt"]
    # The signature ends with the worker count.
    assert native.KERNEL_ARGS[-1].name == "num_threads"
    assert native.kernel_argtypes()[-1] is ctypes.c_int64


def test_loader_binds_the_table_signature(monkeypatch, tmp_path):
    """``load_kernel`` declares the C prototype's types on the symbol.

    A fake ``CDLL`` stands in for the built library, so no C compiler
    is needed: the test only sees what the loader declares.
    """

    class FakeLibrary:
        def __init__(self, path):
            setattr(self, native.KERNEL_FUNCTION, FakeKernel())

    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_cached", None)
    monkeypatch.setattr(native, "_cached_key", None)
    monkeypatch.setattr(ctypes, "CDLL", FakeLibrary)
    key = native._build_key(
        native.kernel_source_path().read_bytes(), native._effective_cflags()
    )
    library = tmp_path / "native" / f"sta_kernel_{key}.so"
    library.parent.mkdir()
    library.touch()
    fn = native.load_kernel()
    assert isinstance(fn, FakeKernel)
    assert fn.argtypes == _check_c_prototype(_kernel_source())
    assert fn.restype is None


@pytest.mark.parametrize("mutation", sorted(_PROTOTYPE_MUTATIONS))
def test_seeded_prototype_edit_fails_the_check(mutation):
    old, new, reason = _PROTOTYPE_MUTATIONS[mutation]
    source = _kernel_source()
    start = source.index(f"void {native.KERNEL_FUNCTION}(")
    end = source.index("{", start)
    prototype = source[start:end]
    assert old in prototype, f"mutation anchor not found: {old!r}"
    mutated = source[:start] + prototype.replace(old, new, 1) + source[end:]
    with pytest.raises(AssertionError, match=reason):
        _check_c_prototype(mutated)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_clean_program_passes_the_check(placed, fake, threads):
    engine = STAEngine(*placed)
    engine.run(
        _samples(engine.netlist), engine="compiled", native_threads=threads
    )
    program = engine.program
    block = program._native_block_size(
        NUM_SAMPLES, program.num_slots, threads
    )
    assert len(fake.calls) == -(-NUM_SAMPLES // block) > 1
    assert [call[0] for call in fake.calls][-1] == NUM_SAMPLES % block
    assert all(call[-1] == threads for call in fake.calls)


def test_nominal_run_passes_null_u(placed, fake):
    engine = STAEngine(*placed)
    engine.run(None, engine="compiled")
    assert fake.calls and all(call[2] is None for call in fake.calls)
    assert all(call[4] is None and call[5] is None for call in fake.calls)


def test_wire_run_passes_per_block_scale_rows(placed, fake):
    """Each block gets its own rows of the scales; a missing one is NULL.

    The kernel reads C-ordered rows, so Fortran-ordered input is copied
    once and passes the per-block check.
    """
    engine = STAEngine(*placed)
    program = engine.program
    scales = np.asfortranarray(
        np.random.default_rng(6).uniform(
            0.5, 1.5, (NUM_SAMPLES, program.num_nets)
        )
    )
    engine.run(
        _samples(engine.netlist), engine="compiled", wire_scales={"C": scales}
    )
    block = program._native_block_size(NUM_SAMPLES, program.num_slots)
    assert len(fake.calls) == -(-NUM_SAMPLES // block) > 1
    for call in fake.calls:
        assert call[3] == program.num_nets
        assert call[4] is None and call[5] is not None


# ----------------------------------------------------------------------
# Mutations of the call site (textual, on a copy of compiled.py).
# ----------------------------------------------------------------------
def test_scratch_without_the_thread_factor_is_caught(
    placed, fake, tmp_path, monkeypatch
):
    mutant = _mutant_program_class(
        monkeypatch,
        tmp_path,
        "kscratch = np.empty(6 * block * threads)",
        "kscratch = np.empty(6 * block)",
    )
    monkeypatch.setattr(sta, "CompiledTimingProgram", mutant)
    _expect_violation(fake, STAEngine(*placed), "scratch", threads=2)


def test_arena_one_element_short_is_caught(
    placed, fake, tmp_path, monkeypatch
):
    mutant = _mutant_program_class(
        monkeypatch,
        tmp_path,
        "arena_a = np.empty(width * block)",
        "arena_a = np.empty(width * block - 1)",
    )
    monkeypatch.setattr(sta, "CompiledTimingProgram", mutant)
    _expect_violation(fake, STAEngine(*placed), "arena_a")


# ----------------------------------------------------------------------
# Mutations of the compiled tables and the per-block projection.
# ----------------------------------------------------------------------
def test_gate_table_missing_an_entry_is_caught(placed, fake):
    engine = STAEngine(*placed)
    tables = engine.program._tables
    tables["g_bd"] = tables["g_bd"][:-1]
    _expect_violation(fake, engine, "g_bd")


def test_float32_dff_row_is_caught(placed, fake):
    engine = STAEngine(*placed)
    tables = engine.program._tables
    assert tables["dff_k1"].size > 0
    tables["dff_k1"] = tables["dff_k1"].astype(np.float32)
    _expect_violation(fake, engine, "dff_k1")


def test_non_contiguous_projection_is_caught(placed, fake):
    """A strided view's row blocks are not C-contiguous, so the first
    block's ``u`` fails its per-block check before any call."""
    engine = STAEngine(*placed)
    rng = np.random.default_rng(5)
    num_gates = engine.netlist.num_gates
    wide = rng.standard_normal((NUM_SAMPLES, 2 * num_gates)) * 0.1
    with pytest.raises(native.KernelArgumentError) as info:
        engine.program.execute(
            NUM_SAMPLES,
            projection=wide[:, :num_gates],
            input_slew_ps=10.0,
            native_threads=1,
        )
    assert info.value.argument == "u"
    assert fake.calls == [], "kernel entered despite a contract violation"


def test_fortran_ordered_precomputed_projection_is_caught(placed, fake):
    """A precomputed ``u`` is read in row blocks in place, so it must be
    C-ordered: a Fortran-ordered one fails the contract before any call."""
    engine = STAEngine(*placed)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((NUM_SAMPLES, engine.netlist.num_gates)) * 0.1
    with pytest.raises(native.KernelArgumentError) as info:
        engine.program.execute(
            NUM_SAMPLES,
            projection=np.asfortranarray(u),
            input_slew_ps=10.0,
            native_threads=1,
        )
    assert info.value.argument == "u"
    assert repr("u") in str(info.value)
    assert fake.calls == [], "kernel entered despite a contract violation"
    engine.program.execute(
        NUM_SAMPLES, projection=u, input_slew_ps=10.0, native_threads=1
    )
    assert fake.calls


# ----------------------------------------------------------------------
# Extent rules on a hand-built one-gate program.
# ----------------------------------------------------------------------
def _one_gate_args(rows=4):
    """Valid arguments for one PI (slot 0) feeding one gate (slot 1)."""
    def i64(*values):
        return np.array(values, dtype=np.int64)

    args = {
        "num_rows": rows,
        "num_model_gates": 1,
        "num_nets": 2,
        "input_slew": 10.0,
        "pi_slots": i64(0),
        "num_pi": 1,
        "num_dff": 0,
        "num_gates": 1,
        "g_fanin": i64(1),
        "g_out_slot": i64(1),
        "g_id": i64(0),
        "g_col": i64(1),
        "p_slot": i64(0),
        "p_col": i64(0),
        "arena_a": np.zeros(2 * rows),
        "arena_s": np.zeros(2 * rows),
        "scratch": np.zeros(6 * rows),
        "num_threads": 1,
    }
    args["dff_slots"] = args["dff_gids"] = args["dff_col"] = i64()
    for arg in native.KERNEL_ARGS:
        if arg.name not in args and arg.name not in _PER_BLOCK:
            # The float64 tables: per DFF (none) or per gate/pin (one).
            dff = arg.name.startswith("dff_")
            args[arg.name] = np.zeros(0) if dff else np.ones(1)
    return args


def _violation(args):
    with pytest.raises(native.KernelArgumentError) as info:
        native.BoundKernel(FakeKernel(), **args)
    return info.value.argument


def test_one_gate_program_binds_and_runs():
    kernel = FakeKernel()
    call = native.BoundKernel(kernel, **_one_gate_args())
    call(3, np.zeros((3, 1)))
    call(4, None)
    call(2, None, np.ones((2, 2)), np.ones((2, 2)))
    call(1, np.zeros((1, 1)), None, np.ones((1, 2)))
    assert [args[0] for args in kernel.calls] == [3, 4, 2, 1]
    assert [args[4] is None for args in kernel.calls] == [
        True, True, False, True
    ]


def test_extents_follow_the_other_arguments():
    args = _one_gate_args()
    args["g_fanin"] = np.array([2], dtype=np.int64)  # two pins, one entry
    assert _violation(args) == "p_slot"
    args = _one_gate_args()
    args["g_out_slot"] = np.array([2], dtype=np.int64)  # needs 3 slots
    assert _violation(args) == "arena_a"
    args = _one_gate_args()
    args["num_threads"] = 2
    assert _violation(args) == "scratch"
    args = _one_gate_args()
    args["g_id"] = np.array([1], dtype=np.int64)  # u has one column
    assert _violation(args) == "g_id"
    for table in ("p_col", "g_col"):
        args = _one_gate_args()
        args[table] = np.array([2], dtype=np.int64)  # two nets
        assert _violation(args) == table
    args = _one_gate_args()
    args["num_dff"] = 1
    for name in args:
        if name.startswith("dff_"):
            args[name] = np.ones(1)
    args["dff_slots"] = args["dff_gids"] = np.array([0], dtype=np.int64)
    args["dff_col"] = np.array([2], dtype=np.int64)  # two nets
    assert _violation(args) == "dff_col"


def test_malformed_arguments_are_named():
    args = _one_gate_args()
    args["arena_s"].flags.writeable = False
    assert _violation(args) == "arena_s"
    args = _one_gate_args()
    args["g_id"] = [0]
    assert _violation(args) == "g_id"
    args = _one_gate_args()
    args["g_bd"] = None
    assert _violation(args) == "g_bd"
    args = _one_gate_args()
    del args["p_wd"]
    assert _violation(args) == "p_wd"


def test_per_block_rows_and_projection_are_rechecked():
    kernel = FakeKernel()
    call = native.BoundKernel(kernel, **_one_gate_args(rows=4))
    with pytest.raises(native.KernelArgumentError, match="num_rows"):
        call(5, None)
    with pytest.raises(native.KernelArgumentError, match="'u'"):
        call(4, np.zeros((3, 1)))
    # u is (rows, 1) here, so only the two-column scale rows can be
    # Fortran-ordered; every per-block pointer is checked for the rest.
    rows = np.ones((4, 2))
    bad_rows = {
        "Fortran-ordered": np.asfortranarray(rows),
        "short": rows[:3],
        "float32": rows.astype(np.float32),
    }
    for position, name in ((2, "r_scale"), (3, "c_scale")):
        for problem, value in bad_rows.items():
            per_block = [None, None]
            per_block[position - 2] = value
            with pytest.raises(native.KernelArgumentError) as info:
                call(4, None, *per_block)
            assert info.value.argument == name, problem
            assert repr(name) in str(info.value)
    for value in (np.zeros((3, 1)), np.zeros((4, 1), dtype=np.float32)):
        with pytest.raises(native.KernelArgumentError, match="'u'"):
            call(4, value)
    assert kernel.calls == []


def test_error_survives_pickling():
    # Process-pool workers ship exceptions back by pickle.
    error = native.KernelArgumentError("scratch", "too small")
    restored = pickle.loads(pickle.dumps(error))
    assert restored.argument == "scratch"
    assert str(restored) == str(error)
