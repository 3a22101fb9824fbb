"""Build and load the native STA block kernel.

:mod:`repro.timing.compiled` flattens a placed netlist into tables that
``sta_kernel.c`` evaluates sample block by sample block — a single fused
pass per gate, wire R/C variation included.  This module compiles that
kernel on first use with the system ``cc`` into the artifact cache
directory (``REPRO_CACHE_DIR``, default ``.repro_cache``) and loads it
with :mod:`ctypes`; nothing is installed and no third-party build
tooling is used.

If there is no compiler, the build fails, or ``REPRO_NO_NATIVE=1`` is
set, :func:`load_kernel` returns ``None`` and ``engine="compiled"``
runs the per-gate reference loop instead.  Kernel results are within
floating-point reassociation error (``rtol=1e-12``) of the reference
loop, and are bitwise reproducible across chunk/block partitionings.

Threading: the kernel's one entry point, ``sta_eval_gates_mt``,
partitions the sample lanes of each block across a worker team; one
worker runs inline on the calling thread.  The
parallel backend is probed at build time (:func:`thread_backend`):
OpenMP when a ``-fopenmp`` compile succeeds, raw pthreads otherwise,
sequential-sweep fallback when neither works — and the chosen backend's
flags are folded into the build key, so toolchains with different
threading support never share a ``.so``.  ``REPRO_NATIVE_THREADS``
selects the worker count (unset → 1, ``auto``/``0`` → all cores, a
positive integer → that many; anything else raises ``ValueError``) and
``REPRO_NATIVE_THREAD_BACKEND`` can pin the backend for testing.
Per-lane arithmetic is identical for every lane partition, so results
are bitwise independent of the thread count.

Argument contract: :data:`KERNEL_ARGS` declares every C parameter once
— name, ctypes type and, for pointers, the minimum extent as a function
of the other arguments.  :class:`BoundKernel` checks dtype, contiguity,
extent, writeability and the bounds of the model-id and net-column
tables against it before the kernel is entered and
raises :class:`KernelArgumentError` naming the argument; the ctypes
``argtypes`` are derived from the same table.

Setting ``REPRO_SANITIZE=ubsan`` (or ``asan``, comma-separable) switches
to an instrumented build — ``-O1 -g -fsanitize=... -fno-sanitize-
recover=all`` — cached under its own key so sanitizer objects never
shadow the optimized ones.  The cache key also folds in the first line
of ``cc --version``: with ``-march=native`` a ``.so`` is only valid for
the toolchain/CPU that produced it, so a shared cache directory must not
hand it to a different machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

_SOURCE = Path(__file__).with_name("sta_kernel.c")
#: ``-fno-math-errno`` lets the nominal pin loops vectorize, which
#: halves the no-wire kernel's time: while ``sqrt`` must set ``errno`` on
#: a negative argument, GCC leaves any loop that calls it scalar.
#: ``sqrt`` is correctly rounded either way and the kernel never takes
#: the root of a negative number, so results are bitwise unchanged.  GCC
#: and Clang both accept the flag; GCC 12 ignores it in ``#pragma GCC
#: optimize``, so it cannot live in the source.
_CFLAGS = ["-O3", "-march=native", "-fno-math-errno", "-shared", "-fPIC"]

#: Accepted ``REPRO_SANITIZE`` tokens → ``-fsanitize=`` group names.
_SANITIZE_FLAG_MAP = {
    "asan": "address",
    "address": "address",
    "ubsan": "undefined",
    "undefined": "undefined",
}

#: Base flags for sanitizer builds: light optimization and debug info so
#: sanitizer reports carry usable line numbers.  Deliberately disjoint
#: from :data:`_CFLAGS` — the optimized build's flags (and therefore its
#: bitwise behavior and cache key) never change when sanitizers exist.
_SANITIZE_BASE_CFLAGS = ["-O1", "-g", "-shared", "-fPIC"]

#: Name of the kernel entry point in ``sta_kernel.c``.
KERNEL_FUNCTION = "sta_eval_gates_mt"

#: ctypes result type of the kernel (``void``).
KERNEL_RESTYPE = None

#: Compiler flags per thread backend.  ``pthreads`` defines
#: ``REPRO_USE_PTHREADS`` so ``sta_kernel.c`` compiles its pthread
#: driver instead of relying on the (absent) ``_OPENMP`` macro.
_BACKEND_FLAGS: Dict[str, Tuple[str, ...]] = {
    "openmp": ("-fopenmp",),
    "pthreads": ("-pthread", "-DREPRO_USE_PTHREADS"),
    "none": (),
}

_OPENMP_PROBE = "#include <omp.h>\nint probe(void){return omp_get_max_threads();}\n"
_PTHREAD_PROBE = (
    "#include <pthread.h>\n"
    "static void *noop(void *p){return p;}\n"
    "int probe(void){pthread_t t;"
    "return pthread_create(&t, 0, noop, 0) == 0 ? pthread_join(t, 0) : 1;}\n"
)

_cached: Optional[object] = None
#: The effective compiler flags of the last load attempt; :data:`_cached`
#: holds its result (``None`` when the build or the load failed).
_cached_key: Optional[Tuple[str, ...]] = None
_compiler_identity_cache: Optional[str] = None
_thread_backend_cache: Optional[str] = None


def _cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def sanitize_mode() -> Tuple[str, ...]:
    """The sanitizer groups requested via ``REPRO_SANITIZE``.

    ``REPRO_SANITIZE=asan,ubsan`` (aliases ``address``/``undefined``
    also accepted, comma-separated, case-insensitive) selects an
    instrumented kernel build.  Returns the sorted, deduplicated
    ``-fsanitize=`` group names, ``()`` when unset.  Unknown tokens
    raise ``ValueError`` — a typo silently falling back to the
    uninstrumented kernel would defeat the whole point of the mode.

    Note on ``asan``: loading an ASan-instrumented ``.so`` into an
    uninstrumented Python requires ``LD_PRELOAD``-ing the ASan runtime;
    CI therefore exercises ``ubsan``, which gcc links self-contained
    into shared objects.
    """
    raw = os.environ.get("REPRO_SANITIZE", "")
    groups: List[str] = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        group = _SANITIZE_FLAG_MAP.get(token)
        if group is None:
            raise ValueError(
                f"unknown REPRO_SANITIZE token {token!r}; expected a "
                f"comma-separated subset of "
                f"{sorted(set(_SANITIZE_FLAG_MAP))}"
            )
        if group not in groups:
            groups.append(group)
    return tuple(sorted(groups))


def native_thread_count() -> int:
    """Worker count requested via ``REPRO_NATIVE_THREADS``.

    Unset (or blank) means 1 — the serial hot path, so existing
    single-threaded deployments never change behavior implicitly.
    ``auto`` or ``0`` means every core ``os.cpu_count()`` reports.  A
    positive integer selects that many workers.  Anything else raises
    ``ValueError``: a typo silently running serial would invalidate a
    thread-scaling measurement.

    Results never depend on this knob — the kernel's per-lane
    arithmetic is identical under every lane partition — only speed
    does.
    """
    raw = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if not raw:
        return 1
    if raw.lower() in ("auto", "0"):
        return max(1, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid REPRO_NATIVE_THREADS {raw!r}: expected a positive "
            f"integer, 'auto'/'0' (all cores), or unset (serial)"
        ) from None
    if value < 1:
        raise ValueError(
            f"invalid REPRO_NATIVE_THREADS {raw!r}: thread count must be "
            f">= 1 (use 'auto' or '0' for all cores)"
        )
    return value


def resolve_thread_count(explicit: Optional[int] = None) -> int:
    """Effective worker count: explicit override, else the env knob.

    ``explicit`` comes from API plumbing (``STAEngine.run(...,
    native_threads=)``, the service config); ``None`` defers to
    ``REPRO_NATIVE_THREADS``.  Values below 1 raise ``ValueError``.
    """
    if explicit is None:
        return native_thread_count()
    value = int(explicit)
    if value < 1:
        raise ValueError(f"native_threads must be >= 1, got {explicit!r}")
    return value


def _probe_compiles(snippet: str, flags: Sequence[str]) -> bool:
    """Whether ``cc`` builds ``snippet`` into a shared object with ``flags``."""
    tmpdir = None
    try:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro_thread_probe_")
        src = Path(tmpdir.name) / "probe.c"
        src.write_text(snippet, encoding="utf-8")
        out = Path(tmpdir.name) / "probe.so"
        proc = subprocess.run(
            ["cc", "-shared", "-fPIC", *flags, str(src), "-o", str(out)],
            capture_output=True,
            timeout=60,
            check=False,
        )
        return proc.returncode == 0
    except (OSError, subprocess.SubprocessError, ValueError):
        return False
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()


def thread_backend() -> str:
    """The thread backend a kernel build would use (memoized compile probe).

    Probes the toolchain once per process: ``"openmp"`` when a
    ``-fopenmp`` compile succeeds, else ``"pthreads"`` when ``-pthread``
    works, else ``"none"`` (the entry point still exists but sweeps lane
    ranges sequentially).  ``REPRO_NATIVE_THREAD_BACKEND``
    pins the answer — ``openmp``/``pthreads``/``none``, case-insensitive
    — skipping the probe, which is how tests exercise the fallback
    paths deterministically; an unknown value raises ``ValueError``.
    """
    global _thread_backend_cache
    forced = os.environ.get("REPRO_NATIVE_THREAD_BACKEND", "").strip().lower()
    if forced:
        if forced not in _BACKEND_FLAGS:
            raise ValueError(
                f"unknown REPRO_NATIVE_THREAD_BACKEND {forced!r}; expected "
                f"one of {sorted(_BACKEND_FLAGS)} or unset (auto-probe)"
            )
        return forced
    if _thread_backend_cache is None:
        if _probe_compiles(_OPENMP_PROBE, _BACKEND_FLAGS["openmp"]):
            backend = "openmp"
        elif _probe_compiles(_PTHREAD_PROBE, ("-pthread",)):
            backend = "pthreads"
        else:
            backend = "none"
        # Per-process memo: the toolchain cannot change mid-process, and
        # each process probing cc once is the intended behavior.
        _thread_backend_cache = backend
    return _thread_backend_cache


def thread_backend_flags() -> List[str]:
    """Compiler flags for the probed (or pinned) thread backend."""
    return list(_BACKEND_FLAGS[thread_backend()])


def _effective_cflags() -> List[str]:
    """Compiler flags for the current build mode (optimized or sanitize).

    The thread-backend flags ride along in both modes — the sanitize
    job must instrument the same threaded driver the optimized build
    runs — and land in the build key via :func:`_build_key`.
    """
    groups = sanitize_mode()
    if not groups:
        return list(_CFLAGS) + thread_backend_flags()
    return (
        _SANITIZE_BASE_CFLAGS
        + [
            f"-fsanitize={','.join(groups)}",
            "-fno-sanitize-recover=all",
        ]
        + thread_backend_flags()
    )


def _compiler_identity() -> str:
    """First line of ``cc --version`` (memoized), or a fallback marker.

    Folded into the build key so a shared ``REPRO_CACHE_DIR`` never
    reuses a ``.so`` across toolchains — ``-march=native`` output from
    one machine is not portable to another CPU/compiler.
    """
    global _compiler_identity_cache
    if _compiler_identity_cache is None:
        try:
            proc = subprocess.run(
                ["cc", "--version"],
                capture_output=True,
                timeout=10,
                check=False,
            )
            first_line = proc.stdout.decode("utf-8", "replace").splitlines()
            identity = first_line[0].strip() if first_line else "unknown-cc"
        except (OSError, subprocess.SubprocessError, ValueError):
            identity = "no-cc"
        # Per-process memo: the toolchain cannot change mid-process, and
        # each process probing cc once is the intended behavior.
        _compiler_identity_cache = identity
    return _compiler_identity_cache


def _build_key(source: bytes, cflags: Sequence[str]) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(" ".join(cflags).encode())
    digest.update(b"\0")
    digest.update(_compiler_identity().encode("utf-8", "replace"))
    return digest.hexdigest()[:16]


def kernel_build_info() -> Dict[str, Union[str, int, Tuple[str, ...], List[str]]]:
    """Describe the build the current environment would produce.

    Purely informational (used by tests and bench reports): the cache
    key, effective flags, sanitizer groups, compiler identity, thread
    backend and the worker count the env would select — without
    triggering a compile.
    """
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        source = b""
    cflags = _effective_cflags()
    return {
        "key": _build_key(source, cflags),
        "cflags": cflags,
        "sanitize": sanitize_mode(),
        "compiler": _compiler_identity(),
        "thread_backend": thread_backend(),
        "threads": native_thread_count(),
    }


def kernel_source_path() -> Path:
    """Path of the C source the kernel is compiled from."""
    return _SOURCE


class KernelArgumentError(ValueError):
    """A kernel argument breaks :data:`KERNEL_ARGS`; raised before the call.

    ``argument`` names the offending C parameter.
    """

    def __init__(self, argument: str, problem: str):
        super().__init__(
            f"{KERNEL_FUNCTION} argument {argument!r}: {problem}"
        )
        self.argument = argument
        self.problem = problem

    def __reduce__(self) -> Tuple[type, Tuple[str, str]]:
        # Survives pickling across process pools despite the two-field
        # constructor.
        return (type(self), (self.argument, self.problem))


class _Sizes:
    """What the extent rules read: the arguments plus two shared sums.

    ``num_pins`` and ``top_slot`` are each computed once per check, on
    first use — which, in C order, comes after the tables they reduce
    have passed their own rows.
    """

    def __init__(self, args: Mapping[str, Any]):
        self.args = args

    def count(self, name: str) -> int:
        return int(self.args[name])

    @cached_property
    def num_pins(self) -> int:
        """Pins the kernel's running pin counter walks: ``Σ g_fanin``."""
        return int(self.args["g_fanin"][: self.count("num_gates")].sum())

    @cached_property
    def top_slot(self) -> int:
        """The largest arena slot any index table names (-1 if none)."""
        top = -1
        for table, count in (
            ("pi_slots", self.count("num_pi")),
            ("dff_slots", self.count("num_dff")),
            ("g_out_slot", self.count("num_gates")),
            ("p_slot", self.num_pins),
        ):
            if count > 0:
                top = max(top, int(self.args[table][:count].max()))
        return top


#: An extent rule: the bound arguments → an element count.
Extent = Callable[[_Sizes], int]


@dataclass(frozen=True)
class KernelArg:
    """One C parameter of the kernel: name, ctypes type, minimum extent.

    Scalars have no ``extent``.  Pointer arguments must be C-contiguous
    ndarrays of exactly the pointee dtype holding at least ``extent``
    elements; ``nullable`` ones may be ``None`` (passed as ``NULL``) and
    ``writeable`` ones are the kernel's outputs.  Index tables with a
    ``limit`` must keep their first ``extent`` entries below it.
    """

    name: str
    ctype: type
    extent: Optional[Extent] = None
    nullable: bool = False
    writeable: bool = False
    limit: Optional[Extent] = None


def _count(name: str) -> Extent:
    return lambda sizes: sizes.count(name)


def _num_pins(sizes: _Sizes) -> int:
    return sizes.num_pins


def _arena_extent(sizes: _Sizes) -> int:
    """``(1 + max slot index) · num_rows``: the slot-major arena size."""
    return (sizes.top_slot + 1) * sizes.count("num_rows")


def _u_extent(sizes: _Sizes) -> int:
    """One ``num_model_gates``-wide projection row per sample."""
    return sizes.count("num_rows") * sizes.count("num_model_gates")


def _scale_extent(sizes: _Sizes) -> int:
    """One ``num_nets``-wide wire-scale row per sample."""
    return sizes.count("num_rows") * sizes.count("num_nets")


def _scratch_extent(sizes: _Sizes) -> int:
    """One private ``6 · num_rows`` block per worker."""
    return 6 * sizes.count("num_rows") * max(sizes.count("num_threads"), 1)


_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_POINTEE: Dict[type, np.dtype] = {
    _P_I64: np.dtype(np.int64),
    _P_F64: np.dtype(np.float64),
}

#: Pointer type → its element type (what ``from_buffer`` views).
_ELEMENT: Dict[type, Any] = {_P_I64: _I64, _P_F64: _F64}
#: A valid address per pointer type for zero-extent arguments.
_UNUSED = {ctype: ctypes.byref(_ELEMENT[ctype]()) for ctype in _ELEMENT}

_GATES = _count("num_gates")
_DFFS = _count("num_dff")
#: ``u`` rows have ``num_model_gates`` columns; model ids index them.
_MODEL_GATES = _count("num_model_gates")
#: Wire-scale rows have ``num_nets`` columns; net columns index them.
_NETS = _count("num_nets")

#: The kernel's argument contract, one row per C parameter in C order.
#: :func:`kernel_argtypes` is derived from it;
#: :class:`BoundKernel` checks every call against it; and
#: ``tests/timing/test_kernel_contract.py`` compares it with the C
#: prototype in ``sta_kernel.c`` (names, types, ``const``-ness).
KERNEL_ARGS: Tuple[KernelArg, ...] = (
    KernelArg("num_rows", _I64),
    KernelArg("num_model_gates", _I64),
    KernelArg("u", _P_F64, _u_extent, nullable=True),
    KernelArg("num_nets", _I64),
    KernelArg("r_scale", _P_F64, _scale_extent, nullable=True),
    KernelArg("c_scale", _P_F64, _scale_extent, nullable=True),
    KernelArg("input_slew", _F64),
    KernelArg("pi_slots", _P_I64, _count("num_pi")),
    KernelArg("num_pi", _I64),
    KernelArg("dff_slots", _P_I64, _DFFS),
    KernelArg("dff_gids", _P_I64, _DFFS, limit=_MODEL_GATES),
    KernelArg("dff_col", _P_I64, _DFFS, limit=_NETS),
    KernelArg("dff_bd", _P_F64, _DFFS),
    KernelArg("dff_bs", _P_F64, _DFFS),
    KernelArg("dff_dmetal", _P_F64, _DFFS),
    KernelArg("dff_smetal", _P_F64, _DFFS),
    KernelArg("dff_k1", _P_F64, _DFFS),
    KernelArg("dff_k2", _P_F64, _DFFS),
    KernelArg("dff_m1", _P_F64, _DFFS),
    KernelArg("dff_m2", _P_F64, _DFFS),
    KernelArg("num_dff", _I64),
    KernelArg("num_gates", _I64),
    KernelArg("g_fanin", _P_I64, _GATES),
    KernelArg("g_out_slot", _P_I64, _GATES),
    KernelArg("g_id", _P_I64, _GATES, limit=_MODEL_GATES),
    KernelArg("g_col", _P_I64, _GATES, limit=_NETS),
    KernelArg("g_bd", _P_F64, _GATES),
    KernelArg("g_dsl", _P_F64, _GATES),
    KernelArg("g_bs", _P_F64, _GATES),
    KernelArg("g_ssl", _P_F64, _GATES),
    KernelArg("g_dmetal", _P_F64, _GATES),
    KernelArg("g_smetal", _P_F64, _GATES),
    KernelArg("g_k1", _P_F64, _GATES),
    KernelArg("g_k2", _P_F64, _GATES),
    KernelArg("g_m1", _P_F64, _GATES),
    KernelArg("g_m2", _P_F64, _GATES),
    KernelArg("p_slot", _P_I64, _num_pins),
    KernelArg("p_col", _P_I64, _num_pins, limit=_NETS),
    KernelArg("p_wd", _P_F64, _num_pins),
    KernelArg("p_step2", _P_F64, _num_pins),
    KernelArg("p_rc", _P_F64, _num_pins),
    KernelArg("p_rpin", _P_F64, _num_pins),
    KernelArg("arena_a", _P_F64, _arena_extent, writeable=True),
    KernelArg("arena_s", _P_F64, _arena_extent, writeable=True),
    KernelArg("scratch", _P_F64, _scratch_extent, writeable=True),
    KernelArg("num_threads", _I64),
)

_ARG_INDEX = {arg.name: index for index, arg in enumerate(KERNEL_ARGS)}
_ROWS = _ARG_INDEX["num_rows"]
#: The per-block pointer rows, in C order: re-checked on every call.
_PER_BLOCK = tuple(
    (_ARG_INDEX[name], KERNEL_ARGS[_ARG_INDEX[name]])
    for name in ("u", "r_scale", "c_scale")
)


def _check_array(arg: KernelArg, value: Any, sizes: _Sizes) -> Any:
    """Validate one pointer argument; return what ctypes should receive."""
    if value is None:
        if arg.nullable:
            return None
        raise KernelArgumentError(arg.name, "NULL is not allowed")
    if not isinstance(value, np.ndarray):
        raise KernelArgumentError(
            arg.name, f"expected an ndarray, got {type(value).__name__}"
        )
    dtype = _POINTEE[arg.ctype]
    if value.dtype != dtype:
        raise KernelArgumentError(
            arg.name, f"dtype {value.dtype} is not {dtype}"
        )
    flags = value.flags
    if not flags.c_contiguous:
        raise KernelArgumentError(arg.name, "array is not C-contiguous")
    extent = arg.extent(sizes) if arg.extent is not None else 0
    if value.size < extent:
        raise KernelArgumentError(
            arg.name, f"{value.size} elements < required extent {extent}"
        )
    if arg.limit is not None and extent > 0:
        limit = arg.limit(sizes)
        top = int(value[:extent].max())
        if top >= limit:
            raise KernelArgumentError(
                arg.name, f"index {top} is not below {limit}"
            )
    if arg.writeable and not flags.writeable:
        raise KernelArgumentError(arg.name, "output array is read-only")
    if not extent:
        # Nothing is read or written through it; any valid address does.
        return _UNUSED[arg.ctype]
    if flags.writeable:
        # A reference into the buffer (which it keeps alive): a quarter
        # of the cost of ``data_as``, and a bind converts 38 pointers.
        return ctypes.byref(_ELEMENT[arg.ctype].from_buffer(value))
    return value.ctypes.data_as(arg.ctype)


def _checked_args(args: Mapping[str, Any]) -> List[Any]:
    """Check a full argument mapping against :data:`KERNEL_ARGS`.

    Returns the positional argument list, in C order, ready for the
    ctypes call; raises :class:`KernelArgumentError` naming the first
    argument that is missing or breaks its row.
    """
    for arg in KERNEL_ARGS:
        if arg.name not in args:
            raise KernelArgumentError(arg.name, "missing")
    unknown = sorted(set(args) - set(_ARG_INDEX))
    if unknown:
        raise KernelArgumentError(unknown[0], "not a kernel parameter")
    sizes = _Sizes(args)
    return [
        args[arg.name]
        if arg.extent is None
        else _check_array(arg, args[arg.name], sizes)
        for arg in KERNEL_ARGS
    ]


class BoundKernel:
    """A kernel callable bound to its block-invariant arguments.

    Construction checks every argument once, with ``num_rows`` as the
    largest block the caller will run; each call then re-checks only
    what changes per block — ``num_rows`` (at most the bound value, so
    every extent that scales with it still holds), ``u`` and the wire
    scale rows ``r_scale``/``c_scale`` — before invoking ``kernel``.
    Pass every C parameter but those three by name.  ``kernel`` may be
    any callable taking the C argument list, which is how tests observe
    calls without a compiler.
    """

    def __init__(self, kernel: Callable[..., None], **args: Any):
        self._kernel = kernel
        self._max_rows = int(args["num_rows"])
        self._args = _checked_args(
            {**args, "u": None, "r_scale": None, "c_scale": None}
        )
        self._num_model_gates = int(args["num_model_gates"])
        self._num_nets = int(args["num_nets"])

    def __call__(
        self,
        num_rows: int,
        u: Optional[np.ndarray],
        r_scale: Optional[np.ndarray] = None,
        c_scale: Optional[np.ndarray] = None,
    ) -> None:
        """Run one block of ``num_rows`` samples.

        ``u`` is the block's projection and ``r_scale``/``c_scale`` its
        wire-scale rows; each may be ``None``.
        """
        if not 0 <= num_rows <= self._max_rows:
            raise KernelArgumentError(
                "num_rows",
                f"{num_rows} is outside the bound range "
                f"[0, {self._max_rows}]",
            )
        args = list(self._args)
        args[_ROWS] = num_rows
        sizes = _Sizes(
            {
                "num_rows": num_rows,
                "num_model_gates": self._num_model_gates,
                "num_nets": self._num_nets,
            }
        )
        for (index, arg), value in zip(_PER_BLOCK, (u, r_scale, c_scale)):
            args[index] = _check_array(arg, value, sizes)
        self._kernel(*args)


def kernel_argtypes() -> List[type]:
    """The ctypes ``argtypes`` declaration for :data:`KERNEL_FUNCTION`.

    Derived from :data:`KERNEL_ARGS`.  This list is the Python side of
    the C ABI contract with ``sta_kernel.c``; a tier-1 test compares the
    table with the C prototype (arity, names, element types, pointer
    ``const``-ness, return type) so a skewed edit fails the suite
    instead of corrupting memory in the native hot path.
    """
    return [arg.ctype for arg in KERNEL_ARGS]


def load_kernel() -> Optional[object]:
    """Build/load the kernel; return the ``sta_eval_gates_mt`` function.

    ``None`` when the kernel is disabled or cannot be built.  The
    function exists even when :func:`thread_backend` is ``"none"`` — it
    then sweeps the lane ranges sequentially, preserving the bitwise
    contract with zero speedup.

    The compiled shared object is cached per source/flag hash under the
    artifact cache directory; builds are atomic (compile to a temp file,
    then ``os.replace``) so concurrent processes — bench workers or CI
    jobs sharing ``REPRO_CACHE_DIR`` — never load a half-written library.
    The outcome, the loaded function or ``None``, is memoized per process
    on the effective flags: the source is read and hashed, and a failing
    compiler started, once, and again only when ``REPRO_SANITIZE`` or a
    thread-backend pin changes the flags.
    """
    global _cached, _cached_key
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    # A malformed REPRO_SANITIZE or thread-backend pin raises here,
    # before any fallback logic: silently running the wrong kernel
    # because of a typo would invalidate what the run claims to prove.
    cflags = tuple(_effective_cflags())
    if _cached_key != cflags:
        # Per-process memo of the load outcome: each process dlopens the
        # (disk-shared) .so, or fails to build it, once per flag set;
        # nothing reads this across processes.
        _cached, _cached_key = _build_and_load(cflags), cflags
    return _cached


def _build_and_load(cflags: Tuple[str, ...]) -> Optional[object]:
    """Compile (or reuse) the kernel built with ``cflags`` and load it."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    key = _build_key(source, cflags)

    lib_path = _cache_dir() / "native" / f"sta_kernel_{key}.so"
    if not lib_path.exists():
        tmp = None
        try:
            lib_path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=lib_path.parent, suffix=".so.tmp"
            )
            os.close(fd)
            subprocess.run(
                ["cc", *cflags, str(_SOURCE), "-o", tmp, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, lib_path)
        except (OSError, subprocess.SubprocessError, ValueError):
            # No compiler, compile error, timeout, or an unwritable cache
            # dir — all mean "run the reference loop", never a crash.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return None
    try:
        lib = ctypes.CDLL(str(lib_path))
        fn = getattr(lib, KERNEL_FUNCTION)
    except (OSError, AttributeError):
        return None
    fn.argtypes = kernel_argtypes()
    fn.restype = KERNEL_RESTYPE
    return fn
