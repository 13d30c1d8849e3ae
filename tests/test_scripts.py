"""Smoke runs of the example scripts against the library they import."""

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_oracle_sweep_agrees_with_brute_force():
    proc = run_script("scripts/oracle_sweep.py", "--count", "20", "--max-vertices", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "mismatches: 0"


def test_the_exhaustive_sweep_checks_every_small_metric_and_its_no_proof():
    proc = run_script("scripts/oracle_sweep.py", "--exhaustive", "4", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout.splitlines()
    assert out[0] == "metrics: 180 classes on up to 4 anchors, entries up to 4"
    assert out[-1] == "mismatches: 0"


def test_reduction_demo_round_trips_colourings():
    proc = run_script("scripts/reduction_demo.py", "tests/data/k2.graph", "--max-k", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout.splitlines()
    assert "matrix solvable with 2 extra vertices: True" in out
    assert out[-2:] == [
        "k=2: realisation on 7 vertices, recovered colouring (1, 2)",
        "k=3: realisation on 8 vertices, recovered colouring (1, 2)",
    ]


def test_reduction_demo_refuses_more_than_ten_vertices(tmp_path):
    path = tmp_path / "path11.graph"
    path.write_text("graph 11 11\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 11)))
    proc = run_script("scripts/reduction_demo.py", str(path))
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == "error: 11 vertices exceeds the guard of 10\n"


def test_cli_digest_prints_the_same_lines_under_two_hash_seeds():
    # The lines must also match the committed digest; COMBDMR_REGEN_GOLDENS=1
    # rewrites it, as it does the CLI goldens.
    leftovers = set(Path(tempfile.gettempdir()).glob("cli_digest_*"))
    runs = [run_script("scripts/cli_digest.py", PYTHONHASHSEED=seed) for seed in ("0", "1")]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    golden = ROOT / "tests" / "golden" / "cli_digest.txt"
    if os.environ.get("COMBDMR_REGEN_GOLDENS") == "1":
        golden.write_text(runs[0].stdout)
    assert runs[0].stdout == golden.read_text(), "the CLI's behaviour changed"
    lines = runs[0].stdout.splitlines()
    assert len(lines) > 100 and lines[-1].endswith(" total")
    assert all(len(line.split(" ", 1)[0]) == 64 for line in lines)
    assert {line.split()[1] for line in lines[:-1]} == {
        "validate", "solve", "solve-exact", "bounds", "tree", "reduce",
        "colour-realise", "extract-colouring", "verify", "gen", "nonsense",
    }
    assert "<tmp>" in runs[0].stdout and tempfile.gettempdir() not in runs[0].stdout
    assert set(Path(tempfile.gettempdir()).glob("cli_digest_*")) == leftovers


def test_bench_tracer_names_exist_in_the_library():
    # The benchmark's tracer wraps these names; a missing one would crash
    # every traced run.
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {
        layer: importlib.import_module(f"combdmr.{layer}")
        for layer in (*tracing.LAYERS, "generate")
    }
    for layer, fns in tracing.LAYERS.items():
        for fn in fns:
            assert callable(getattr(modules[layer], fn, None)), f"combdmr.{layer}.{fn}"
    # It also wraps each name another module imported a layer function
    # under, so that calls between modules are traced.
    names = tracing.Tracer(modules).patched_names()
    for name in (
        "combdmr.cli.validate",
        "combdmr.solvers.unit_graph",
        "combdmr.reduction.bfs_apsp",
    ):
        assert name in names, name
