"""Tests for the whole-program project model and name resolution."""

import ast
import tokenize

from repro.analysis import analyze_project_paths
from repro.analysis.project import (
    ProjectModel,
    Resolver,
    function_parameters,
)


def _write_project(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text('"""Pkg."""\n')
    (tmp_path / "pkg" / "alpha.py").write_text(
        '"""Alpha."""\n'
        "import numpy as np\n"
        "from pkg.beta import helper\n"
        "from . import beta\n\n\n"
        "LIMIT = 4\n\n\n"
        "def top(x: int) -> int:\n"
        "    return helper(x)\n\n\n"
        "class Engine:\n"
        "    def __init__(self, n: int) -> None:\n"
        "        self.n = n\n\n"
        "    def run(self) -> int:\n"
        "        return self.n\n"
    )
    (tmp_path / "pkg" / "beta.py").write_text(
        '"""Beta."""\n\n\n'
        "def helper(x: int) -> int:\n"
        "    def inner(y: int) -> int:\n"
        "        return y\n"
        "    return inner(x)\n"
    )
    return tmp_path / "pkg"


def test_package_module_naming(tmp_path):
    model = ProjectModel.from_paths([_write_project(tmp_path)])
    assert set(model.modules) == {"pkg", "pkg.alpha", "pkg.beta"}


def test_symbol_table_covers_methods_and_nested_defs(tmp_path):
    model = ProjectModel.from_paths([_write_project(tmp_path)])
    assert "pkg.alpha.top" in model.functions
    assert "pkg.alpha.Engine.run" in model.functions
    assert "pkg.beta.helper.inner" in model.functions
    info = model.functions["pkg.alpha.Engine.run"]
    assert info.is_method and info.class_qualname == "pkg.alpha.Engine"
    nested = model.functions["pkg.beta.helper.inner"]
    assert nested.enclosing == "pkg.beta.helper"


def test_resolver_follows_imports_and_aliases(tmp_path):
    model = ProjectModel.from_paths([_write_project(tmp_path)])
    alpha = model.modules["pkg.alpha"]
    resolver = Resolver(model, alpha)
    assert resolver.resolve_target("helper") == "pkg.beta.helper"
    assert resolver.resolve_target("beta.helper") == "pkg.beta.helper"
    assert resolver.resolve_target("np.float64") == "numpy.float64"
    # Construction resolves to the class's __init__.
    assert (
        model.lookup_callable(resolver.resolve_target("Engine"))
        == "pkg.alpha.Engine.__init__"
    )


def test_methods_named_fallback(tmp_path):
    model = ProjectModel.from_paths([_write_project(tmp_path)])
    names = [info.qualname for info in model.methods_named("run")]
    assert names == ["pkg.alpha.Engine.run"]
    assert model.methods_named("helper") == []  # not a method


def test_unparseable_files_are_skipped(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "fine.py").write_text("def fine() -> int:\n    return 1\n")
    model = ProjectModel.from_paths([tmp_path])
    assert set(model.modules) == {"fine"}


def test_function_parameters_excludes_varargs():
    node = ast.parse(
        "def f(a, b, /, c, *args, d, **kwargs):\n    pass\n"
    ).body[0]
    assert function_parameters(node) == ("a", "b", "c", "d")


def test_src_repro_model_contains_the_native_boundary(src_repro_model):
    model = src_repro_model
    assert "repro.timing.native" in model.modules
    assert "repro.timing.native.load_kernel" in model.functions
    native = model.modules["repro.timing.native"]
    assert native.imports.get("ctypes") == "ctypes"


def test_gate_parses_and_tokenizes_each_file_once(tmp_path, monkeypatch):
    # The per-file rules and the whole-program passes share one tree per
    # file, and the suppression table is the only tokenizer pass.
    project = _write_project(tmp_path)
    calls = {"parse": 0, "tokenize": 0}
    real_parse, real_tokenize = ast.parse, tokenize.generate_tokens

    def counting_parse(*args, **kwargs):
        calls["parse"] += 1
        return real_parse(*args, **kwargs)

    def counting_tokenize(*args, **kwargs):
        calls["tokenize"] += 1
        return real_tokenize(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(tokenize, "generate_tokens", counting_tokenize)
    report = analyze_project_paths([project])
    assert report.files_checked == 3
    assert calls == {"parse": 3, "tokenize": 3}
