"""The package root is the README's Library example, and nothing more."""

import ast
import contextlib
import io
import re
import types
from pathlib import Path

import mfsig

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_root_exports_exactly_the_library_example_imports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "mfsig"
        for alias in node.names
    }
    assert sorted(imported) == sorted(mfsig.__all__)
    assert len(mfsig.__all__) == 6


def test_library_example_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(library_example(), "README.md", "exec"), namespace)
    h2, oracle, width = (float(v) for v in out.getvalue().split())
    assert abs(h2 - oracle) <= 0.05
    assert width == namespace["fit"].width > 0


def test_emd_is_the_submodule():
    import mfsig.emd

    assert isinstance(mfsig.emd, types.ModuleType)
    assert callable(mfsig.emd.emd)
