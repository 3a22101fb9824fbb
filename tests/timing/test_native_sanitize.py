"""Tests for the sanitizer build mode and portable cache keys."""

import ctypes
import shutil
import subprocess

import pytest

from repro.timing import native


@pytest.fixture(autouse=True)
def _fresh_native_state(monkeypatch):
    """Isolate the per-process kernel memo and the sanitize env knob."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setattr(native, "_cached", None)
    monkeypatch.setattr(native, "_cached_key", None)


def test_sanitize_mode_defaults_to_empty():
    assert native.sanitize_mode() == ()


def test_sanitize_mode_parses_tokens(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    assert native.sanitize_mode() == ("undefined",)
    monkeypatch.setenv("REPRO_SANITIZE", "asan,ubsan")
    assert native.sanitize_mode() == ("address", "undefined")
    # Aliases, case and whitespace are normalized; duplicates collapse.
    monkeypatch.setenv("REPRO_SANITIZE", " Undefined , UBSAN ,address ")
    assert native.sanitize_mode() == ("address", "undefined")


def test_sanitize_mode_rejects_unknown_tokens(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan,bogus")
    with pytest.raises(ValueError, match="bogus"):
        native.sanitize_mode()


def test_default_cflags_are_unchanged_by_the_sanitize_feature(monkeypatch):
    # Only the probed thread backend's flags ride along with the
    # optimized set; with the backend pinned off, the flags are exactly
    # the baseline _CFLAGS.
    monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "none")
    assert native._effective_cflags() == native._CFLAGS
    assert "-O3" in native._CFLAGS
    monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "openmp")
    assert native._effective_cflags() == native._CFLAGS + ["-fopenmp"]


def test_sanitize_cflags_instrument_and_abort_on_error(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    cflags = native._effective_cflags()
    assert "-fsanitize=undefined" in cflags
    assert "-fno-sanitize-recover=all" in cflags
    assert "-g" in cflags
    assert "-march=native" not in cflags


def test_sanitize_build_gets_a_distinct_cache_key(monkeypatch):
    default_key = native.kernel_build_info()["key"]
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    ubsan_key = native.kernel_build_info()["key"]
    assert default_key != ubsan_key
    monkeypatch.setenv("REPRO_SANITIZE", "asan")
    assert native.kernel_build_info()["key"] not in (default_key, ubsan_key)


def test_compiler_identity_is_part_of_the_key(monkeypatch):
    monkeypatch.setattr(native, "_compiler_identity_cache", "cc one")
    key_one = native._build_key(b"source", native._CFLAGS)
    monkeypatch.setattr(native, "_compiler_identity_cache", "cc two")
    key_two = native._build_key(b"source", native._CFLAGS)
    assert key_one != key_two


def test_source_bytes_are_part_of_the_key():
    key_one = native._build_key(b"source one", native._CFLAGS)
    key_two = native._build_key(b"source two", native._CFLAGS)
    assert key_one != key_two


def test_memo_reloads_when_the_flags_change(monkeypatch, tmp_path):
    """``load_kernel`` reads its source once per flag set, not once ever.

    A fake ``CDLL`` stands in for the built libraries, so no C compiler
    is needed; each fake kernel remembers the library it came from.
    """

    class FakeKernel:
        def __init__(self, path):
            self.path = path

    class FakeLibrary:
        def __init__(self, path):
            setattr(self, native.KERNEL_FUNCTION, FakeKernel(path))

    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(ctypes, "CDLL", FakeLibrary)
    (tmp_path / "native").mkdir()
    for mode in ("", "ubsan"):
        monkeypatch.setenv("REPRO_SANITIZE", mode)
        library = tmp_path / "native" / (
            f"sta_kernel_{native.kernel_build_info()['key']}.so"
        )
        library.touch()
        fn = native.load_kernel()
        assert fn.path == str(library)
        assert native.load_kernel() is fn


def test_a_failed_build_is_remembered_per_flag_set(monkeypatch, tmp_path):
    """Without a working compiler ``load_kernel`` starts ``cc`` once per
    flag set, not on every call (that is, every compiled-engine run)."""
    compiles = []

    def failing_run(args, **kwargs):
        compiles.append(args)
        raise subprocess.CalledProcessError(1, args)

    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # Pinned backend and compiler identity: no probe starts a process, so
    # every recorded call is a kernel compile.
    monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "none")
    monkeypatch.setattr(native, "_compiler_identity_cache", "cc test")
    monkeypatch.setattr(subprocess, "run", failing_run)
    assert native.load_kernel() is None
    assert native.load_kernel() is None
    assert len(compiles) == 1
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    assert native.load_kernel() is None
    assert native.load_kernel() is None
    assert len(compiles) == 2
    assert "-fsanitize=undefined" in compiles[1]


def test_compiler_identity_survives_a_missing_compiler(monkeypatch):
    monkeypatch.setattr(native, "_compiler_identity_cache", None)
    monkeypatch.setenv("PATH", "")
    assert native._compiler_identity() == "no-cc"


def test_build_info_reports_the_mode(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    info = native.kernel_build_info()
    assert info["sanitize"] == ("undefined",)
    assert "-fsanitize=undefined" in info["cflags"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_ubsan_kernel_builds_and_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SANITIZE", "ubsan")
    fn = native.load_kernel()
    assert fn is not None
    key = native.kernel_build_info()["key"]
    assert (tmp_path / "native" / f"sta_kernel_{key}.so").exists()


def test_load_kernel_raises_on_malformed_sanitize_env(monkeypatch):
    # A typo'd REPRO_SANITIZE must not silently fall back to the
    # uninstrumented kernel.
    monkeypatch.setenv("REPRO_SANITIZE", "ubsann")
    with pytest.raises(ValueError):
        native.load_kernel()
