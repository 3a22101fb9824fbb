"""Build and load the optional native STA block kernel.

:mod:`repro.timing.compiled` evaluates sample blocks with numpy array
operations.  When a C compiler is available, the same flattened program
can instead be driven through ``sta_kernel.c`` — a single fused pass per
gate that runs several times faster than the array formulation (no
intermediate arrays, no per-op dispatch).  This module compiles that
kernel on first use with the system ``cc`` into the artifact cache
directory (``REPRO_CACHE_DIR``, default ``.repro_cache``) and loads it
with :mod:`ctypes`; nothing is installed and no third-party build
tooling is used.

The kernel is strictly optional: if there is no compiler, the build
fails, or ``REPRO_NO_NATIVE=1`` is set, :func:`load_kernel` returns
``None`` and the engine silently stays on the numpy path.  Results are
within floating-point reassociation error (``rtol=1e-12``) of both the
numpy path and the reference engine, and are bitwise reproducible across
chunk/block partitionings.

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
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

_SOURCE = Path(__file__).with_name("sta_kernel.c")
_CFLAGS = ["-O3", "-march=native", "-shared", "-fPIC"]

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
_cached_key: Optional[str] = None
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
        # each pool worker probing cc once is the intended behavior.
        _thread_backend_cache = backend  # repro-lint: disable=REPRO-PAR001
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
        # each pool worker probing cc once is the intended behavior.
        _compiler_identity_cache = identity  # repro-lint: disable=REPRO-PAR001
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


def kernel_argtypes() -> List[type]:
    """The ctypes ``argtypes`` declaration for :data:`KERNEL_FUNCTION`.

    This list is the Python side of the C ABI contract with
    ``sta_kernel.c``; :mod:`repro.analysis.cabi` cross-checks it against
    the parsed C prototype (arity, pointer width, element dtype) so a
    skewed edit fails the lint gate instead of corrupting memory in the
    native hot path.  The trailing ``int64_t num_threads`` sizes the
    worker team; ``scratch`` must hold ``4 × B × num_threads`` doubles
    (one private block per worker).
    """
    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    return [
        i64, i64, p_f64, ctypes.c_double,
        p_i64, i64,
        p_i64, p_i64, p_f64, p_f64, p_f64, p_f64, p_f64, p_f64, i64,
        i64,
        p_i64, p_i64, p_i64,
        p_f64, p_f64, p_f64, p_f64,
        p_f64, p_f64, p_f64, p_f64,
        p_i64, p_f64, p_f64,
        p_f64, p_f64, p_f64,
        i64,
    ]


def kernel_abi() -> Dict[str, Tuple[List[type], Optional[type]]]:
    """Every exported kernel entry point → (argtypes, restype).

    The C-ABI cross-checker iterates this registry, so adding a kernel
    entry point here is what puts it under the lint gate's protection.
    """
    return {KERNEL_FUNCTION: (kernel_argtypes(), KERNEL_RESTYPE)}


def load_kernel() -> Optional[object]:
    """Build/load the kernel; return the ``sta_eval_gates_mt`` function.

    ``None`` when the kernel is disabled or cannot be built.  The
    function exists even when :func:`thread_backend` is ``"none"`` — it
    then sweeps the lane ranges sequentially, preserving the bitwise
    contract with zero speedup.

    The compiled shared object is cached per source/flag hash under the
    artifact cache directory; builds are atomic (compile to a temp file,
    then ``os.replace``) so concurrent processes — e.g. ``table1``
    workers — never load a half-written library.
    """
    global _cached, _cached_key
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    # A malformed REPRO_SANITIZE or thread-backend pin raises here,
    # before any fallback logic: silently running the wrong kernel
    # because of a typo would invalidate what the run claims to prove.
    cflags = _effective_cflags()
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    key = _build_key(source, cflags)
    if _cached is not None and _cached_key == key:
        return _cached

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
            # dir — all mean "stay on the numpy path", never a crash.
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
    # Per-process memo of the loaded ctypes function: workers each
    # dlopen the (disk-shared) .so once; nothing reads this across
    # processes.
    _cached, _cached_key = fn, key  # repro-lint: disable=REPRO-PAR001
    return _cached
