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

import pytest

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


def _imports_of(name):
    """(file, line) of every import of the top-level module ``name`` in src/."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(path.name, node.lineno) for m in modules if m.split(".")[0] == name]
    return found


def test_no_module_imports_typing():
    # Annotations are postponed, so the abstract types they name come from
    # collections.abc.
    assert _imports_of("typing") == []


def test_no_module_imports_dataclasses():
    # The records derive from matrix._Value; generating dataclasses would
    # cost every process the import and the code generation.
    assert _imports_of("dataclasses") == []


def _new_modules(code):
    """The modules a fresh interpreter loads while running ``code``, read
    from the last line of its output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


# What reading input loads: the parsers take their types from matrix and graph.
PARSERS = {"combdmr", "combdmr.textio", "combdmr.graph", "combdmr.matrix"}


def test_the_parsers_load_no_decider():
    loaded = _new_modules("import combdmr.textio")
    assert {m for m in loaded if m.startswith("combdmr")} == PARSERS


DATA = "tests/data/"
# Each subcommand, with arguments of its golden case, and the deciders it
# loads on top of the CLI and the parsers.
SUBCOMMAND_MODULES = [
    (["validate", DATA + "twos.mat"], set()),
    (["verify", DATA + "k2_real.graph", DATA + "k2_reduced.mat"], set()),
    (["solve", "--k", "2", DATA + "twos.mat"], {"solvers", "twosat"}),
    (["solve-exact", "--k", "1", DATA + "twos.mat"], {"solvers", "twosat"}),
    (["bounds", DATA + "eight.mat"], {"solvers", "twosat"}),
    (["tree", DATA + "twos.mat", "--certify"], {"tree"}),
    (["reduce", DATA + "k2.graph"], {"reduction"}),
    (["colour-realise", DATA + "k2.graph", DATA + "k2.col"], {"reduction"}),
    (["extract-colouring", DATA + "k2.graph", DATA + "k2_real.graph", "--k", "2"], {"reduction"}),
    (["gen", "--mode", "random-metric", "--vertices", "6"], {"generate"}),
]


@pytest.mark.parametrize(
    "argv, deciders", SUBCOMMAND_MODULES, ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES]
)
def test_each_subcommand_loads_only_its_own_modules(argv, deciders):
    loaded = _new_modules(f"from combdmr.cli import main\nassert main({argv!r}) == 0")
    expected = PARSERS | {"combdmr.cli"} | {f"combdmr.{m}" for m in deciders}
    assert {m for m in loaded if m.startswith("combdmr")} == expected
    assert not loaded & {"dataclasses", "traceback"}


def test_an_internal_error_loads_traceback():
    # The self-check of tree --certify fails when the tree decider is
    # replaced by one that always answers NO.
    loaded = _new_modules(
        "from combdmr import cli, tree\n"
        "tree.expand_tree = lambda d, t: None\n"
        f"assert cli.main(['tree', '--certify', '{DATA}twos.mat']) == 4"
    )
    assert "traceback" in loaded


def test_solvers_names_the_guard_exception_of_graph():
    from combdmr import graph, solvers

    assert solvers.SearchSpaceTooLarge is graph.SearchSpaceTooLarge
