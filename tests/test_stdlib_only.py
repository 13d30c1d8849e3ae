"""The runtime library imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "combdmr").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_only():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"combdmr"}
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in allowed
    }
    assert foreign == set()
