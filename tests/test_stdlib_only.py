"""The runtime needs nothing beyond the standard library (see README)."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "germ"


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_or_germ():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {(path.name, name) for path in files
               for name in _top_level_imports(path)
               if name != "germ" and name not in sys.stdlib_module_names}
    assert not foreign
