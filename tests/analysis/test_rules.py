"""Good/bad fixtures for every project lint rule.

Each rule gets at least one fixture that must trigger it and one that
must stay clean, run through the real engine (`analyze_source` with the
rule selected) so dispatch, locations and messages are all exercised.
"""

import textwrap

from repro.analysis.engine import analyze_source


def hits(rule_id, source):
    """Rule ids of violations the selected rule finds in ``source``."""
    found = analyze_source(
        textwrap.dedent(source), "fixture.py", select=[rule_id]
    )
    return [v.rule_id for v in found]


# ----------------------------------------------------------------------
# REPRO-RNG001 — legacy np.random.* global state.
# ----------------------------------------------------------------------
def test_rng001_flags_module_level_calls():
    bad = """
        import numpy as np
        x = np.random.normal(size=8)
        np.random.seed(0)
    """
    assert hits("REPRO-RNG001", bad) == ["REPRO-RNG001"] * 2


def test_rng001_flags_full_module_spelling():
    bad = """
        import numpy
        numpy.random.shuffle(values)
    """
    assert hits("REPRO-RNG001", bad) == ["REPRO-RNG001"]


def test_rng001_flags_legacy_import():
    bad = "from numpy.random import seed, randn\n"
    assert hits("REPRO-RNG001", bad) == ["REPRO-RNG001"]


def test_rng001_clean_on_generator_api():
    good = """
        import numpy as np
        from numpy.random import default_rng, Generator
        rng = np.random.default_rng(42)
        x = rng.normal(size=8)
        rng.shuffle(x)
    """
    assert hits("REPRO-RNG001", good) == []


def test_rng001_ignores_unrelated_attribute_chains():
    good = "x = module.random.normal(3)\n"
    assert hits("REPRO-RNG001", good) == []


# ----------------------------------------------------------------------
# REPRO-RNG002 — retired: the per-file unseeded-default_rng rule was
# subsumed by the interprocedural seed-flow pass (REPRO-SEED001, see
# tests/analysis/test_seedflow.py for the behavioral coverage).
# ----------------------------------------------------------------------
def test_rng002_is_retired_in_favor_of_seed_flow():
    from repro.analysis.engine import known_rule_ids

    known = known_rule_ids()
    assert "REPRO-RNG002" not in known
    assert "REPRO-SEED001" in known
    assert "REPRO-SEED002" in known


# ----------------------------------------------------------------------
# REPRO-CACHE001 — mutation of cache-loaded arrays.
# ----------------------------------------------------------------------
def test_cache001_flags_subscript_store():
    bad = """
        arrays = cache.load("kle", schema="v1")
        arrays["eigenvalues"][0] = 0.0
    """
    assert hits("REPRO-CACHE001", bad) == ["REPRO-CACHE001"]


def test_cache001_flags_read_artifact_and_get_or_create():
    bad = """
        def warm(kle_cache):
            data = read_artifact(path, schema="v1")
            data["values"][:] = 1.0
            entry = kle_cache.get_or_create("key", build)
            entry["values"] += 1.0
    """
    assert hits("REPRO-CACHE001", bad) == ["REPRO-CACHE001"] * 2


def test_cache001_tracks_subscript_aliases_and_methods():
    bad = """
        arrays = cache.load("entry")
        eigen = arrays["eigenvalues"]
        eigen += 1.0
        eigen.sort()
    """
    assert hits("REPRO-CACHE001", bad) == ["REPRO-CACHE001"] * 2


def test_cache001_clean_on_copies_and_rebinding():
    good = """
        import numpy as np
        arrays = cache.load("entry")
        copy = np.array(arrays["eigenvalues"])
        copy[0] = 99.0
        copy.sort()
        arrays = {}
        arrays["fresh"] = 1
    """
    assert hits("REPRO-CACHE001", good) == []


def test_cache001_scope_is_per_function():
    good = """
        def reader(cache):
            arrays = cache.load("entry")
            return arrays

        def writer():
            arrays = build_arrays()
            arrays["x"] = 1
    """
    assert hits("REPRO-CACHE001", good) == []


def test_cache001_requires_cacheish_receiver():
    good = """
        rows = db.load("query")
        rows["x"] = 1
    """
    assert hits("REPRO-CACHE001", good) == []


# ----------------------------------------------------------------------
# REPRO-FLOAT001 — float-literal equality.
# ----------------------------------------------------------------------
def test_float001_flags_eq_and_ne():
    bad = """
        if x == 0.5:
            pass
        done = value != 1.0
    """
    assert hits("REPRO-FLOAT001", bad) == ["REPRO-FLOAT001"] * 2


def test_float001_clean_on_tolerances_and_ints():
    good = """
        import numpy as np
        if np.isclose(x, 0.5):
            pass
        if count == 0:
            pass
        if x < 0.5:
            pass
    """
    assert hits("REPRO-FLOAT001", good) == []


def test_float001_suppression_with_justification():
    good = """
        # Assigned-never-computed sentinel, exact by construction.
        if total == 0.0:  # repro-lint: disable=REPRO-FLOAT001
            pass
    """
    assert hits("REPRO-FLOAT001", good) == []


# ----------------------------------------------------------------------
# REPRO-DEF001 — mutable defaults.
# ----------------------------------------------------------------------
def test_def001_flags_literals_and_constructors():
    bad = """
        def f(a=[], b={}, c=set()):
            pass

        def g(*, d=dict()):
            pass

        h = lambda xs=[]: xs
    """
    assert hits("REPRO-DEF001", bad) == ["REPRO-DEF001"] * 5


def test_def001_clean_on_none_and_immutables():
    good = """
        def f(a=None, b=(), c="name", d=0):
            out = a if a is not None else []
            return out, b, c, d
    """
    assert hits("REPRO-DEF001", good) == []


# ----------------------------------------------------------------------
# REPRO-EXC001 — bare / blanket excepts.
# ----------------------------------------------------------------------
def test_exc001_flags_bare_and_blanket():
    bad = """
        try:
            work()
        except:
            pass

        try:
            work()
        except Exception:
            log()

        try:
            work()
        except (ValueError, Exception) as exc:
            log(exc)
    """
    assert hits("REPRO-EXC001", bad) == ["REPRO-EXC001"] * 3


def test_exc001_clean_on_specific_or_reraising():
    good = """
        try:
            work()
        except (OSError, ValueError):
            recover()

        try:
            work()
        except Exception:
            cleanup()
            raise

        try:
            work()
        except BaseException as exc:
            log(exc)
            raise exc
    """
    assert hits("REPRO-EXC001", good) == []


# ----------------------------------------------------------------------
# REPRO-TIME001 — wall clock in cache keys.
# ----------------------------------------------------------------------
def test_time001_flags_clock_in_key_function():
    bad = """
        import time

        def kle_cache_key(kernel, mesh):
            return f"{kernel}-{mesh}-{time.time()}"
    """
    assert hits("REPRO-TIME001", bad) == ["REPRO-TIME001"]


def test_time001_flags_clock_fed_to_hashlib():
    bad = """
        import hashlib
        import time

        token = hashlib.sha256(str(time.time()).encode()).hexdigest()
    """
    assert hits("REPRO-TIME001", bad) == ["REPRO-TIME001"]


def test_time001_flags_datetime_now_in_fingerprint():
    bad = """
        from datetime import datetime

        def artifact_fingerprint(arrays):
            return f"{arrays}-{datetime.now()}"
    """
    assert hits("REPRO-TIME001", bad) == ["REPRO-TIME001"]


def test_time001_clean_on_timing_measurements():
    good = """
        import time

        def run(solver):
            start = time.perf_counter()
            begun = time.time()  # wall-clock logging outside key-building
            result = solver()
            return result, time.time() - begun
    """
    assert hits("REPRO-TIME001", good) == []
