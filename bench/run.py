#!/usr/bin/env python3
"""combdmr benchmark: seeded CLI pipelines, checked against known answers.

Usage (from the repository root):

    python3 bench/run.py --workload planted --seed 1 --seconds 30 --trace 0

Each workload plans a pool of instances from ``--seed`` and writes them as
input files; the program receives only those files.  The timed phase is a
closed loop with one caller: it runs each instance's CLI pipeline in this
process through ``combdmr.cli.main(argv)``, one after the other, cycling
through the pool until ``--seconds`` have passed (and at least
``MIN_SAMPLES`` instances have run).  Every pipeline's outputs
are checked by :mod:`oracle`, which never calls the library.  Set-up, the
fresh import of the library and the writing of the planned pool, is
repeated through the timed phase and its median reported.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
nominal machine speed (see ``REFERENCE_NOMINAL_S``); the times as measured
are in the shape line.  ``--trace 1`` alternates
traced and untraced runs of each instance and reports per-layer self times
and counters from :mod:`tracing`, plus the tracing overhead; the spans are
written to ``.bench_out/`` when the run ends.  The last line of standard
output is one JSON object with keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records instance shape and machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-ups and subprocess runs of the representative instance, spread
# through the timed phase.
SETUP_REPEATS = 6
COLD_REPEATS = 10
COLD_TIMEOUT_S = 60
# The timed phase runs on past its end until it has this many instances,
# so that at least ten of them lie beyond the reported p90.
MIN_SAMPLES = 110
# The host's speed drifts by tens of percent within minutes.  After every
# untraced instance the timed phase times a fixed library-free loop,
# reference_s(), and the end-to-end times are scaled by how fast that loop
# ran, which moves with the host.  REFERENCE_NOMINAL_S is the loop's typical
# time on the machine of the seed point (Xeon, 2 vCPU, Python 3.11.7), so a
# scaled time reads as seconds on that machine at its typical speed.
REFERENCE_NOMINAL_S = 0.004
# A subprocess run or a set-up is scaled by the speed of REFERENCE_AROUND
# reference samples taken just before it and as many just after.
REFERENCE_AROUND = 5

# Pool sizes and instance size ranges.  Sizes are spread evenly over each
# range, so the seed changes the instances' structure but not their size
# mix, which keeps medians comparable between seeds.
SPECS = {
    "planted": {"pool": 18, "n": (80, 100), "edge_probability": 0.03},
    "gadget": {"pool": 64, "n_c": (10, 13), "extra_edges": (2, 14)},
    "tree": {"pool": 48, "n": (40, 60)},
}


@dataclass
class Instance:
    """One pipeline of CLI calls on generated files, with its checker."""

    steps: list[tuple[str, list[str]]]
    outputs: dict[str, Path]
    check: Callable[[dict, dict], str | None]  # (steps, outputs) -> reason
    decider: str  # the step whose verdict answers the instance
    shape: dict


def _spread(lo: int, hi: int, j: int, count: int) -> int:
    return lo + round((hi - lo) * j / max(count - 1, 1))


def _stratum(position: int, count: int) -> int:
    """Size rank of the instance at ``position`` among ``count``.

    Ranks follow the golden-ratio sequence, so every run of consecutive
    positions covers the size range evenly: a run that ends part-way
    through a cycle of the pool is not biased towards small or large
    instances.
    """
    keys = [(q * 0.6180339887498949) % 1 for q in range(count)]
    return sorted(keys).index(keys[position])


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _rows_if_needed(edges: list, hidden: set, n: int) -> list | None:
    """Anchor rows of the graph on n + len(hidden) vertices, by the oracle's
    BFS, when deleting any one hidden vertex, or the edge between two
    adjacent ones, changes some anchor distance; otherwise None."""
    size = n + len(hidden)
    anchors = [v for v in range(1, size + 1) if v not in hidden]
    label = {v: i for i, v in enumerate(anchors + sorted(hidden), 1)}
    edges = [(label[u], label[v]) for u, v in edges]
    rows = oracle.anchor_rows(size, n, edges)
    trials = [[e for e in edges if label[h] not in e] for h in hidden]
    pair = tuple(label[h] for h in sorted(hidden))
    if pair in edges:
        trials.append([e for e in edges if e != pair])
    return rows if all(oracle.anchor_rows(size, n, kept) != rows for kept in trials) else None


def plan_planted(lib, rng: random.Random, i: int, spec: dict) -> dict:
    """A sparse random graph on n + k vertices, k = i mod 3 of them hidden.

    Hidden vertices are drawn until each one is needed by the planted graph,
    so that k, not chance, sets how far the decider has to go.  For k = 2
    every other instance hides the two ends of a needed edge, which sends
    the decider on to the adjacent-extras formula phi2'.  Each graph comes
    from its own seed, so the accepted one can be drawn again directly.
    """
    k, j = i % 3, _stratum(i // 3, spec["pool"] // 3)
    n = _spread(*spec["n"], j, spec["pool"] // 3)
    adjacent = k == 2 and j % 2 == 1
    p = spec["edge_probability"]
    while True:
        graph_seed = rng.getrandbits(64)
        g = lib.generate.random_connected_graph(random.Random(graph_seed), n + k, p)
        edges = sorted(g.edges)
        for _ in range(50):
            if adjacent:
                hidden = set(edges[rng.randrange(len(edges))])
            else:
                hidden = {rng.randrange(1, n + k + 1) for _ in range(k)}
                if len(hidden) < k or tuple(sorted(hidden)) in g.edges:
                    continue
            rows = _rows_if_needed(edges, hidden, n)
            if rows is not None:
                return {
                    "i": i, "n": n, "k": k, "adjacent": adjacent, "edge_probability": p,
                    "graph_seed": graph_seed, "hidden": hidden, "rows": rows,
                }


def write_planted(lib, plan: dict, work: Path) -> Instance:
    """Draws the planned graph and writes its anchor metric, by the library."""
    i, n, k, rows = plan["i"], plan["n"], plan["k"], plan["rows"]
    g = lib.generate.random_connected_graph(
        random.Random(plan["graph_seed"]), n + k, plan["edge_probability"]
    )
    full = lib.graph.bfs_apsp(g)
    anchors = [v for v in range(1, n + k + 1) if v not in plan["hidden"]]
    raw = lib.matrix.RawMatrix(tuple(tuple(full.dist(a, b) for b in anchors) for a in anchors))
    mat = _write(work / f"p{i:02d}.mat", lib.textio.emit_matrix(lib.matrix.validate(raw)))
    out = work / f"p{i:02d}.out.graph"
    return Instance(
        steps=[("solve", ["solve", "--k", "2", str(mat), "--out", str(out)])],
        outputs={"graph": out},
        check=lambda steps, got: oracle.check_planted(steps, got["graph"], rows, k),
        decider="solve",
        shape={
            "n": n, "k": k, "adjacent": plan["adjacent"],
            "max_entry": max(map(max, rows)), "expect": "YES",
        },
    )


def _source_graph(rng: random.Random, n_c: int, extra: int, bipartite: bool):
    """Connected graph on n_c vertices with n_c - 1 + extra edges.

    A random tree plus extra edges: between the tree's parity classes when
    bipartite, else one edge inside a class (an odd cycle) and the rest
    anywhere.  Vertices are relabelled at random.
    """
    while True:
        side = {1: 0}
        edges = set()
        for v in range(2, n_c + 1):
            p = rng.randrange(1, v)
            side[v] = 1 - side[p]
            edges.add((p, v))
        pairs = [(u, v) for u in range(1, n_c + 1) for v in range(u + 1, n_c + 1)]
        if not bipartite:
            same = [e for e in pairs if side[e[0]] == side[e[1]]]
            if not same:
                continue
            edges.add(same[rng.randrange(len(same))])
        free = [
            e for e in pairs
            if e not in edges and (not bipartite or side[e[0]] != side[e[1]])
        ]
        need = n_c - 1 + extra - len(edges)
        if len(free) < need:
            continue
        for _ in range(need):
            edges.add(free.pop(rng.randrange(len(free))))
        perm = list(range(1, n_c + 1))
        rng.shuffle(perm)
        return sorted(
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])) for u, v in edges
        )


def plan_gadget(lib, rng: random.Random, i: int, spec: dict) -> dict:
    """A connected source graph; even i bipartite (YES), odd i not (NO)."""
    bipartite, j = i % 2 == 0, _stratum(i // 2, spec["pool"] // 2)
    lo, hi = spec["n_c"]
    width = hi - lo + 1
    n_c = lo + j % width
    extra = _spread(*spec["extra_edges"], j // width, spec["pool"] // (2 * width))
    edges = _source_graph(rng, n_c, extra, bipartite)
    if (oracle.two_colouring(n_c, edges) is not None) != bipartite:
        raise RuntimeError("source graph generator broke its bipartiteness contract")
    return {"i": i, "n_c": n_c, "edges": edges, "bipartite": bipartite}


def write_gadget(lib, plan: dict, work: Path) -> Instance:
    """Writes the source graph; the pipeline reduces it to a gadget matrix."""
    i, n_c, edges = plan["i"], plan["n_c"], plan["edges"]
    src = _write(
        work / f"g{i:02d}.graph",
        lib.textio.emit_graph(lib.graph.SimpleGraph.make(n_c, n_c, edges)),
    )
    mat, real, col = (work / f"g{i:02d}.{ext}" for ext in ("mat", "real.graph", "col"))
    n = n_c + n_c * (n_c - 1) // 2 + len(edges) + 1
    return Instance(
        steps=[
            ("reduce", ["reduce", str(src), "--out", str(mat)]),
            ("solve", ["solve", "--k", "2", str(mat), "--out", str(real)]),
            ("extract-colouring", ["extract-colouring", str(src), str(real), "--k", "2", "--out", str(col)]),
        ],
        outputs={"matrix": mat, "realisation": real, "colouring": col},
        check=lambda steps, got: oracle.check_gadget(steps, got["colouring"], n_c, edges, n),
        decider="solve",
        # The gadget's largest entry is 3 whenever the source is not complete.
        shape={"n": n, "n_c": n_c, "max_entry": 3, "expect": "YES" if plan["bipartite"] else "NO"},
    )


def plan_tree(lib, rng: random.Random, i: int, spec: dict) -> dict:
    """A random minimal tree, which is the unique realisation of its metric."""
    n = _spread(*spec["n"], _stratum(i, spec["pool"]), spec["pool"])
    t = lib.generate.random_minimal_tree(rng, n)
    edges = sorted(t.edges)
    return {
        "i": i, "n": n, "vertices": t.vertex_count, "edges": edges,
        "rows": oracle.anchor_rows(t.vertex_count, n, edges),
    }


def write_tree(lib, plan: dict, work: Path) -> Instance:
    """Writes the planned tree's anchor metric, by the library."""
    i, n, vertices, rows = plan["i"], plan["n"], plan["vertices"], plan["rows"]
    t = lib.graph.SimpleGraph.make(vertices, n, plan["edges"])
    d = lib.matrix.validate(lib.matrix.RawMatrix(lib.graph.anchor_distances(t).entries))
    mat = _write(work / f"t{i:02d}.mat", lib.textio.emit_matrix(d))
    out = work / f"t{i:02d}.out.graph"
    return Instance(
        steps=[
            ("tree", ["tree", "--certify", str(mat), "--out", str(out)]),
            ("bounds", ["bounds", str(mat)]),
        ],
        outputs={"graph": out},
        check=lambda steps, got: oracle.check_tree(steps, got["graph"], rows, vertices),
        decider="tree",
        shape={"n": n, "max_entry": max(map(max, rows)), "expect": "YES"},
    )


# Each workload's planner makes the seeded choices, including every
# rejection search, and is not timed; its writer turns one plan into input
# files with the library and is timed as set-up.  The expected answers come
# from the plans, which take their distances from the oracle's BFS.
WORKLOADS = {
    "planted": (plan_planted, write_planted),
    "gadget": (plan_gadget, write_gadget),
    "tree": (plan_tree, write_tree),
}
# Pool index of the fixed instance timed as a subprocess: planted k = 2 with
# adjacent extras, a bipartite gadget, a mid-size tree.
REPRESENTATIVE = {"planted": 17, "gadget": 50, "tree": 4}


def plan_pool(lib, name: str, seed: int, spec: dict) -> list[dict]:
    plan = WORKLOADS[name][0]
    return [plan(lib, random.Random(f"{name}-{seed}-{i}"), i, spec) for i in range(spec["pool"])]


def write_pool(lib, name: str, plans: list[dict], work: Path) -> list[Instance]:
    write = WORKLOADS[name][1]
    return [write(lib, plan, work) for plan in plans]


class Library:
    """A fresh import of the ``combdmr`` modules."""

    def __init__(self) -> None:
        for mod in [m for m in sys.modules if m.split(".")[0] == "combdmr"]:
            del sys.modules[mod]
        import combdmr  # noqa: F401
        from combdmr import cli, generate, graph, matrix, reduction, solvers, textio, tree, twosat

        self.cli, self.generate, self.graph, self.matrix = cli, generate, graph, matrix
        self.textio = textio
        self.modules = {
            "cli": cli, "textio": textio, "matrix": matrix, "graph": graph,
            "solvers": solvers, "twosat": twosat, "tree": tree,
            "reduction": reduction, "generate": generate,
        }


@dataclass
class Record:
    index: int
    seconds: float
    traced: bool
    steps: dict
    failure: str | None


class Runner:
    """Runs pool instances through ``cli.main`` and checks their outputs."""

    def __init__(self, lib: Library, pool: list[Instance]) -> None:
        self.lib, self.pool = lib, pool
        self.records: list[Record] = []
        self.cursor = 0  # pool instances started, counting a traced pair once
        self._verdicts: dict = {}

    def run(self, index: int, traced: bool = False) -> Record:
        inst = self.pool[index]
        for path in inst.outputs.values():
            path.unlink(missing_ok=True)
        steps, error = {}, None
        main = self.lib.cli.main  # the traced wrapper while a tracer is installed
        start = time.perf_counter()
        try:
            for step, argv in inst.steps:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
                steps[step] = (rc, buf.getvalue())
                if rc != 0:
                    break
        except Exception as exc:  # a crash is a failed instance, not a failed run
            error = f"{type(exc).__name__} in {step}: {exc}"
        seconds = time.perf_counter() - start
        record = Record(index, seconds, traced, steps, error or self._check(index, steps))
        self.records.append(record)
        return record

    def _check(self, index: int, steps: dict) -> str | None:
        inst = self.pool[index]
        got = _read_outputs(inst)
        # Byte-identical outputs of one instance get the same verdict.
        key = (index, tuple(sorted(steps.items())), tuple(sorted(got.items())))
        if key not in self._verdicts:
            self._verdicts[key] = _verdict(inst, steps, got)
        return self._verdicts[key]


def _read_outputs(inst: Instance) -> dict[str, str | None]:
    return {k: p.read_text() if p.exists() else None for k, p in inst.outputs.items()}


def _verdict(inst: Instance, steps: dict, got: dict) -> str | None:
    """The checker's reason for rejecting the outputs, or None."""
    try:
        return inst.check(steps, got)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


def timed_phase(
    runner: Runner, deadline: float, tracer=None, reference=None, min_records: int = 0
) -> float:
    """Closed loop over the pool until ``time.perf_counter()`` passes
    ``deadline`` and the runner holds ``min_records`` records; returns wall
    time.

    Successive calls on one runner continue the cycle through the pool.
    With a ``reference`` list, a :func:`reference_s` sample is appended to
    it after each instance, and left out of the returned wall time.
    """
    pool = len(runner.pool)
    start = time.perf_counter()
    spent = 0.0
    while time.perf_counter() < deadline or len(runner.records) < min_records:
        index = runner.cursor % pool
        if tracer is None:
            runner.run(index)
            if reference is not None:
                reference.append(reference_s())
                spent += reference[-1]
        else:
            order = (False, True) if (runner.cursor // pool) % 2 else (True, False)
            for traced in order:
                if traced:
                    tracer.trace_id = len(runner.records)
                    tracer.install()
                    try:
                        runner.run(index, traced=True)
                    finally:
                        tracer.remove()
                else:
                    runner.run(index)
        runner.cursor += 1
    return time.perf_counter() - start - spent


def cold_pipeline(inst: Instance) -> tuple[float, str | None]:
    """Wall time of the pipeline as ``python -m combdmr.cli`` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for path in inst.outputs.values():
        path.unlink(missing_ok=True)
    steps = {}
    start = time.perf_counter()
    for step, argv in inst.steps:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "combdmr.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=COLD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, f"{step}: no exit within {COLD_TIMEOUT_S} s"
        steps[step] = (proc.returncode, proc.stdout)
        if proc.returncode != 0:
            break
    seconds = time.perf_counter() - start
    return seconds, _verdict(inst, steps, _read_outputs(inst))


def shape_info(name: str, seed: int, pool: list[Instance], records: list[Record]) -> dict:
    ns = [inst.shape["n"] for inst in pool]
    entries = [inst.shape["max_entry"] for inst in pool]
    verdicts = {"YES": 0, "NO": 0}
    for r in records:
        v = oracle.summary(r.steps.get(pool[r.index].decider, (0, ""))[1]).get("verdict")
        if v in verdicts:
            verdicts[v] += 1
    failures = [
        {"instance": r.index, "traced": r.traced, "reason": r.failure}
        for r in records if r.failure
    ]
    return {
        "workload": name,
        "seed": seed,
        "pool": len(pool),
        "n_range": [min(ns), max(ns)],
        "max_entry_range": [min(entries), max(entries)],
        "pool_expected": {
            e: sum(inst.shape["expect"] == e for inst in pool) for e in ("YES", "NO")
        },
        "verdicts": verdicts,
        "samples": len(records),
        "failed_share": sum(1 for r in records if r.failure) / max(len(records), 1),
        "failures": failures[:10],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


REFERENCE_MATRIX = [[abs(i - j) + (i != j) * (i * j % 3) for j in range(36)] for i in range(36)]


def reference_s() -> float:
    """Wall time of a triangle-inequality scan over a fixed 36 x 36 matrix:
    pure Python that never calls the library, the kind of loop the program
    spends its time in."""
    e = REFERENCE_MATRIX
    n = len(e)
    start = time.perf_counter()
    shortcuts = 0
    for i in range(n):
        row = e[i]
        for j in range(n):
            for w in range(n):
                if e[i][w] + e[w][j] < row[j]:
                    shortcuts += 1
    return time.perf_counter() - start


class SetUp:
    """Imports the library afresh, then generates and writes the pool's
    input files from its plans.  Every call is timed."""

    def __init__(self, name: str, plans: list[dict]) -> None:
        self.name, self.plans = name, plans
        self.seconds: list[float] = []

    def __call__(self, work: Path) -> tuple[Library, list[Instance]]:
        work.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        lib = Library()
        pool = write_pool(lib, self.name, self.plans, work)
        self.seconds.append(time.perf_counter() - start)
        return lib, pool


def end_to_end(lib, name, spec, runner, seconds, work, setup: SetUp) -> tuple[dict, dict, float]:
    """Timed phase with the subprocess runs and the repeated set-ups spread
    evenly through its ``seconds``, so that all three see the same machine
    conditions.  The set-ups write to a directory of their own.

    Instance times are scaled by the reference loop's mean speed over the
    timed phase; each subprocess run and set-up by its speed around it.
    The first set-up, made before the timed phase, is not in the median.
    """
    plan, write = WORKLOADS[name]
    (work / "cold").mkdir(exist_ok=True)
    index = REPRESENTATIVE[name] % spec["pool"]
    rep = write(lib, plan(lib, random.Random(f"{name}-representative"), index, spec), work / "cold")
    runs = [cold_pipeline(rep)]  # warms the file cache and bytecode; not timed
    events = sorted(
        [(j / (COLD_REPEATS + 1), "cold") for j in range(1, COLD_REPEATS + 1)]
        + [(j / (SETUP_REPEATS + 1), "setup") for j in range(1, SETUP_REPEATS + 1)]
    )
    reference = [reference_s()]
    timed = {"cold": [], "setup": []}  # (measured, scaled) seconds per event
    start = time.perf_counter()
    wall = 0.0
    for fraction, event in events:
        wall += timed_phase(runner, start + fraction * seconds, reference=reference)
        before = [reference_s() for _ in range(REFERENCE_AROUND)]
        if event == "cold":
            runs.append(cold_pipeline(rep))
            took = runs[-1][0]
        else:
            setup(work / "setup")
            took = setup.seconds[-1]
        around = before + [reference_s() for _ in range(REFERENCE_AROUND)]
        timed[event].append((took, took * REFERENCE_NOMINAL_S / statistics.fmean(around)))
    wall += timed_phase(runner, start + seconds, reference=reference, min_records=MIN_SAMPLES)
    latencies = [r.seconds for r in runner.records]
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    scale = REFERENCE_NOMINAL_S / statistics.fmean(reference)
    measured = {"verdict_p50_s": statistics.median(latencies), "verdict_p90_s": p90}
    metrics = {k: (v * scale, "s") for k, v in measured.items()}
    for event, metric in (("cold", "cli_cold_s"), ("setup", "setup_s")):
        measured[metric] = statistics.median(m for m, _ in timed[event])
        metrics[metric] = (statistics.median(x for _, x in timed[event]), "s")
    measured["instances_per_s"] = len(latencies) / wall
    metrics["instances_per_s"] = (measured["instances_per_s"] / scale, "1/s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    info = {
        "beyond_p90": sum(x > p90 for x in latencies),
        "cold_attempted": len(runs),
        "cold_failures": [failure for _, failure in runs if failure],
        "measured": measured,
        "reference": {"samples": len(reference), "mean_s": statistics.fmean(reference), "scale": scale},
    }
    return metrics, info, wall


def per_layer(pool, runner, tracer) -> tuple[dict, dict]:
    traced = [r for r in runner.records if r.traced]
    plain = [r for r in runner.records if not r.traced]
    count = max(len(traced), 1)
    metrics = {}
    for span_name, (self_ns, total_ns, calls) in tracing.layer_times(tracer.spans).items():
        metrics[f"{span_name}.self_s"] = (self_ns / 1e9 / count, "s/instance")
        metrics[f"{span_name}.calls"] = (calls / count, "calls/instance")
        if span_name == "cli.main":  # the root span: the time self times add up to
            metrics["cli.main.total_s"] = (total_ns / 1e9 / count, "s/instance")

    by_trace: dict[int, list] = {}
    for s in tracer.spans:
        by_trace.setdefault(s[0], []).append(s)
    record_of = {i: r for i, r in enumerate(runner.records) if r.traced}
    yes_ids, yes_from_sat = [], 0
    for trace_id, r in record_of.items():
        fields = oracle.summary(r.steps.get(pool[r.index].decider, (0, ""))[1])
        if fields.get("verdict") == "YES":
            yes_ids.append(trace_id)
            yes_from_sat += fields.get("extra", "0") != "0" and pool[r.index].decider == "solve"
    anchor_bfs = sum(
        1 for t in yes_ids for s in by_trace.get(t, ()) if s[3] == "graph.anchor_distances"
    )
    solves = [s for s in tracer.spans if s[3] == "twosat.solve"]
    sat = sum(s[6] for s in solves)
    clauses = [s for s in tracer.spans if s[3] in tracing.BUILDERS]
    metrics.update({
        "graph.verify_per_yes": (anchor_bfs / max(len(yes_ids), 1), "passes/yes"),
        "graph.verify_per_yes.base": (len(yes_ids), "count"),
        "solvers.clauses": (sum(s[6] for s in clauses) / count, "clauses/instance"),
        "solvers.yes_per_sat": (yes_from_sat / max(sat, 1), "ratio"),
        "solvers.yes_per_sat.base": (sat, "count"),
        "twosat.unsat_share": ((len(solves) - sat) / max(len(solves), 1), "ratio"),
        "twosat.unsat_share.base": (len(solves), "count"),
    })
    traced_ips = len(traced) / max(sum(r.seconds for r in traced), 1e-9)
    plain_ips = len(plain) / max(sum(r.seconds for r in plain), 1e-9)
    metrics["trace.instances_per_s"] = (traced_ips, "1/s")
    metrics["trace.untraced_instances_per_s"] = (plain_ips, "1/s")
    metrics["trace.overhead"] = (plain_ips / traced_ips - 1, "ratio")

    # Clause totals per formula over the distinct pool instances.
    first = {}
    for trace_id, r in record_of.items():
        first.setdefault(r.index, trace_id)
    clause_totals = {b: 0 for b in sorted(tracing.BUILDERS)}
    for trace_id in first.values():
        for s in by_trace.get(trace_id, ()):
            if s[3] in tracing.BUILDERS:
                clause_totals[s[3]] += s[6]
    return metrics, {"clause_totals": clause_totals, "traced_samples": len(traced)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    spec = spec or SPECS[name]
    work = OUT / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # The seeded search is not timed; set-up is the import and the
        # library's generation and writing of the planned instances.
        plans = plan_pool(Library(), name, seed, spec)
        setup = SetUp(name, plans)
        lib, pool = setup(work)
        runner = Runner(lib, pool)
        if trace:
            tracer = tracing.Tracer(lib.modules)
            wall = timed_phase(runner, time.perf_counter() + seconds, tracer)
            metrics, extra = per_layer(pool, runner, tracer)
            tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
        else:
            metrics, extra, wall = end_to_end(lib, name, spec, runner, seconds, work, setup)
        info = shape_info(name, seed, pool, runner.records)
        info.update(extra, setup_s=setup.seconds, wall_s=wall)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in runner.records if r.failure) + len(extra.get("cold_failures", ()))
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": len(runner.records) + extra.get("cold_attempted", 0),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "combdmr" / "__init__.py").is_file():
        print(f"error: no combdmr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# shape " + json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
