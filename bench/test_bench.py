"""Tests of the benchmark itself: tiny runs, the checker and the tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "planted": {"pool": 3, "n": (12, 14), "edge_probability": 0.2},
    "gadget": {"pool": 2, "n_c": (4, 5), "extra_edges": (1, 1)},
    "tree": {"pool": 2, "n": (6, 8)},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        (name, trace): run.run_workload(name, 7, 0.3, trace, TINY[name])
        for name in TINY
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_named_metric(tiny_runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_runs[(name, trace)]["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        named = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == named


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_sum_to_cli_main(tiny_runs, name):
    metrics = tiny_runs[(name, True)]["result"]["metrics"]
    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["cli.main.total_s"]["value"], rel=1e-9)


def test_instance_times_are_scaled_by_the_reference(tiny_runs):
    out = tiny_runs[("planted", False)]
    scale = out["info"]["reference"]["scale"]
    metrics, measured = out["result"]["metrics"], out["info"]["measured"]
    assert scale > 0
    for name in ("verdict_p50_s", "verdict_p90_s"):
        assert metrics[name]["value"] == pytest.approx(measured[name] * scale)
    assert metrics["instances_per_s"]["value"] == pytest.approx(measured["instances_per_s"] / scale)


def test_shape_record(tiny_runs):
    info = tiny_runs[("gadget", False)]["info"]
    assert info["pool_expected"] == {"YES": 1, "NO": 1}
    assert info["n_range"][0] <= info["n_range"][1]
    assert {"python", "platform", "nproc", "samples"} <= set(info)
    assert set(tiny_runs[("gadget", True)]["info"]["clause_totals"]) == tracing.BUILDERS


def _planted_instance(tmp_path):
    lib = run.Library()
    pool = run.write_pool(lib, "planted", run.plan_pool(lib, "planted", 3, TINY["planted"]), tmp_path)
    runner = run.Runner(lib, pool)
    index = 2  # k = 2
    assert runner.run(index).failure is None
    return pool[index], runner.records[-1].steps


def test_checker_flags_wrong_verdict(tmp_path):
    inst, steps = _planted_instance(tmp_path)
    got = {"graph": inst.outputs["graph"].read_text()}
    assert inst.check(steps, got) is None
    wrong = {"solve": (1, "NO: not realisable\nverdict=NO vertices=0 extra=0\n")}
    assert inst.check(wrong, got) is not None

    edges = [(1, 2), (2, 3), (1, 3)]  # a triangle: not 2-colourable
    yes = {
        "reduce": (0, "verdict=YES vertices=8 extra=0\n"),
        "solve": (0, "verdict=YES vertices=10 extra=2\n"),
        "extract-colouring": (0, "verdict=YES vertices=3 extra=2\n"),
    }
    assert oracle.check_gadget(yes, "1 1\n2 2\n3 1\n", 3, edges, 8) is not None
    no = {"reduce": yes["reduce"], "solve": (1, "verdict=NO vertices=0 extra=0\n")}
    assert oracle.check_gadget(no, None, 3, edges, 8) is None
    path = [(1, 2), (2, 3)]
    assert oracle.check_gadget(no, None, 3, path, 8) is not None


def test_checker_flags_removed_edge(tmp_path):
    inst, steps = _planted_instance(tmp_path)
    lines = inst.outputs["graph"].read_text().splitlines()
    n = int(lines[0].split()[2])
    # An edge between two anchors realises a distance of 1 and is never
    # redundant; edges at extra vertices may be.
    anchor_edges = [i for i, s in enumerate(lines[1:], 1) if int(s.split()[1]) <= n]
    assert anchor_edges
    for drop in anchor_edges:
        tampered = "\n".join(lines[:drop] + lines[drop + 1 :]) + "\n"
        assert inst.check(steps, {"graph": tampered}) is not None


def test_escaping_exception_is_a_failed_instance(tmp_path):
    lib = run.Library()
    pool = run.write_pool(lib, "tree", run.plan_pool(lib, "tree", 1, TINY["tree"]), tmp_path)
    runner = run.Runner(lib, pool)

    def crash(argv):
        raise RecursionError("deep")

    lib.cli.main = crash
    wall = run.timed_phase(runner, time.perf_counter() + 0.05)
    assert wall > 0 and runner.records
    assert all("RecursionError" in r.failure for r in runner.records)


def test_tracer_rebinds_imported_names_and_restores_them():
    lib = run.Library()
    original = lib.modules["solvers"].unit_graph
    tracer = tracing.Tracer(lib.modules)
    names = tracer.patched_names()
    assert "combdmr.solvers.unit_graph" in names
    assert "combdmr.cli.validate" in names
    assert "combdmr.reduction.bfs_apsp" in names
    tracer.install()
    assert lib.modules["solvers"].unit_graph is not original
    tracer.remove()
    assert lib.modules["solvers"].unit_graph is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
