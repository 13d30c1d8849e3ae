"""Every public name has one home: the module that defines it.

The package root binds nothing but its docstring, and no test, script,
benchmark or README example imports anything but a submodule from it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "combdmr"
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def test_package_root_holds_only_its_docstring():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


def _sources():
    """(label, source text) of every Python file under tests/, scripts/ and
    bench/, and of every python example in the README."""
    for folder in ("tests", "scripts", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield str(path.relative_to(ROOT)), path.read_text()
    readme = (ROOT / "README.md").read_text()
    for number, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S), 1):
        yield f"README.md example {number}", block


def test_imports_from_the_package_root_name_only_submodules():
    assert SUBMODULES >= {"cli", "graph", "matrix", "solvers", "tree"}
    imported = set()
    foreign = set()
    for label, text in _sources():
        for node in ast.walk(ast.parse(text, label)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "combdmr":
                for alias in node.names:
                    imported.add(alias.name)
                    if alias.name not in SUBMODULES:
                        foreign.add((label, node.lineno, alias.name))
    assert imported, "no file imports from the package root; the scan found nothing"
    assert foreign == set()


def test_no_module_imports_typing():
    # Annotations are postponed, so the abstract types they name come from
    # collections.abc.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(path.name, node.lineno) for m in modules if m.split(".")[0] == "typing"]
    assert found == []


def test_the_parsers_load_no_decider():
    # textio reaches the guard exception through tree and reduction; both
    # take it from graph, so reading input loads neither solvers nor twosat.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, combdmr.textio, combdmr.graph\n"
        "print(sorted(m for m in sys.modules if m.startswith('combdmr')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert {"combdmr.textio", "combdmr.graph", "combdmr.tree", "combdmr.reduction"} <= loaded
    assert not loaded & {"combdmr.solvers", "combdmr.twosat"}


def test_solvers_names_the_guard_exception_of_graph():
    from combdmr import graph, solvers

    assert solvers.SearchSpaceTooLarge is graph.SearchSpaceTooLarge
