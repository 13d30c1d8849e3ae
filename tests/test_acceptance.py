"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Set ``COMBDMR_REGEN_GOLDENS=1`` to rewrite the CLI golden files instead of
comparing against them.
"""

import os
import random
import time
from pathlib import Path

import pytest

import helpers
from combdmr import twosat
from combdmr.cli import main
from combdmr.graph import (
    _assignment_graph,
    expand_elementary_paths,
    q_skeleton,
    skeleton_distances,
    unit_graph,
    verify_realisation,
)
from combdmr.matrix import ViolationKind
from combdmr.reduction import (
    Colouring,
    extract_colouring,
    proper_colouring,
    realise_from_colouring,
    reduce,
)
from combdmr.solvers import (
    bounds,
    build_phi1,
    build_phi2,
    build_phi2_prime,
    solve_exact,
    solve_k0,
    solve_k1,
    solve_k2,
)
from combdmr.tree import check_zareckii, solve_tree

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

ALL_TWOS = helpers.dm(helpers.ALL_TWOS_3)
ALL_ONES = helpers.dm(helpers.ALL_ONES_3)
EIGHT = helpers.dm(helpers.EIGHT_BY_EIGHT)


def _report(label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label} exceeded its {budget}s budget ({elapsed:.2f}s)"
    print(f"{label}: PASS ({elapsed:.3f}s)")


def _best_call_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def metric_cases():
    return helpers.metric_stream(200, seed0=1000)


@pytest.fixture(scope="module")
def catalogue():
    graphs = helpers.connected_graphs_up_to(5)
    assert len(graphs) == 31
    return graphs


def test_c01_all_twos_matrix():
    t0 = time.perf_counter()
    assert solve_k0(ALL_TWOS) is None
    out = solve_k1(ALL_TWOS)
    assert out is not None
    g = out.graph
    assert g.vertex_count == 4
    assert g.edges == frozenset({(1, 4), (2, 4), (3, 4)})
    assert _best_call_time(lambda: (solve_k0(ALL_TWOS), solve_k1(ALL_TWOS))) < 1e-3
    _report("criterion 01 (3x3 all-twos: NO at k=0, 4-vertex star at k=1)", t0, 5)


def test_c02_all_ones_matrix():
    t0 = time.perf_counter()
    g = solve_k0(ALL_ONES).graph
    assert g.vertex_count - g.anchor_count == 0
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert _best_call_time(lambda: solve_k0(ALL_ONES)) < 1e-3
    _report("criterion 02 (3x3 all-ones: triangle at k=0)", t0, 5)


def test_c03_eight_by_eight_matrix():
    t0 = time.perf_counter()
    assert solve_k0(EIGHT) is None
    out = solve_k1(EIGHT)
    assert out is not None
    assert out.graph.vertex_count == 9
    assert helpers.graph_realises(out.graph, helpers.EIGHT_BY_EIGHT)
    assert _best_call_time(lambda: (solve_k0(EIGHT), solve_k1(EIGHT))) < 1e-2
    _report("criterion 03 (8x8: NO at k=0, 9 vertices at k=1)", t0, 5)


def test_c04_oracle_agreement(metric_cases):
    t0 = time.perf_counter()
    assert len(metric_cases) >= 200
    for d, _ in metric_cases:
        for k, solver in ((0, solve_k0), (1, solve_k1), (2, solve_k2)):
            assert (solver(d) is not None) == (solve_exact(d, k) is not None), (d.entries, k)
    _report("criterion 04 (oracle agreement on 200 seeded metrics)", t0, 60)


def test_c05_twosat_completeness():
    t0 = time.perf_counter()
    rng_instances = []
    for seed in range(500):
        rng = random.Random(20_000 + seed)
        v = rng.randrange(1, 17)
        m = rng.randrange(0, 25)
        clauses = []
        for _ in range(m):
            a, b = rng.randrange(1, v + 1), rng.randrange(1, v + 1)
            la = -a if rng.random() < 0.5 else a
            lb = -b if rng.random() < 0.5 else b
            clauses.append((la, lb))
        rng_instances.append(twosat.TwoSatInstance(v, tuple(clauses)))
    assert len(rng_instances) >= 500
    for inst in rng_instances:
        a = twosat.solve(inst)
        if a is None:
            assert not helpers.brute_satisfiable(inst)
        else:
            assert helpers.check_assignment(inst, a)
    _report("criterion 05 (2-SAT solver vs exhaustive enumeration, 500 instances)", t0, 10)


def test_c06_assignment_invariance(metric_cases):
    t0 = time.perf_counter()
    counts = {"phi1": 0, "phi2": 0, "phi2p": 0}
    families = (
        ("phi1", build_phi1, 1, False, 2),
        ("phi2", build_phi2, 2, False, 2),
        ("phi2p", build_phi2_prime, 2, True, 3),
    )
    for d, _ in metric_cases:
        if all(c >= 50 for c in counts.values()):
            break
        for name, builder, extras, joined, q in families:
            if counts[name] >= 50:
                continue
            inst = builder(d)
            bitmap = helpers.model_bitmap(inst)
            models = bitmap.bit_count()
            if models == 0 or models > 1024:
                continue
            unit = unit_graph(d)
            metrics = {
                helpers.anchor_metric(_assignment_graph(unit, (*m, joined), extras))
                for m in helpers.enumerate_models(inst)
            }
            assert len(metrics) == 1, (name, d.entries)
            expected = helpers.rows(skeleton_distances(q_skeleton(d, q)))
            assert metrics == {expected}, (name, d.entries)
            counts[name] += 1
    assert all(c >= 50 for c in counts.values()), counts
    _report(
        "criterion 06 (model-invariant induced metrics equal skeleton closures)",
        t0,
        30,
    )


def test_c07_reduction_equivalence(catalogue):
    t0 = time.perf_counter()
    for g in catalogue:
        inst = reduce(g)
        chi = helpers.brute_chromatic(g)
        assert chi == 1 or proper_colouring(g, chi - 1) is None
        assert (solve_k1(inst.matrix) is not None) == (chi <= 1)
        assert (solve_k2(inst.matrix) is not None) == (chi <= 2)
        if chi <= 4:
            base = proper_colouring(g, chi)
            assert base is not None
            for k in range(chi, 5):
                lifted = Colouring(k, base.colours)
                r = realise_from_colouring(inst, lifted)
                assert r.graph.vertex_count == inst.n + k
                assert verify_realisation(r.graph, inst.matrix)
                back = extract_colouring(inst, r, k)
                for u, v in g.edges:
                    assert back.colours[u - 1] != back.colours[v - 1]
    _report(
        "criterion 07 (colourability equivalence over all 31 graphs on <= 5 vertices)",
        t0,
        60,
    )


def test_c08_quad_graph_instance():
    t0 = time.perf_counter()
    from combdmr.graph import SimpleGraph

    g = SimpleGraph.make(4, 4, helpers.QUAD_GRAPH_EDGES)
    inst = reduce(g)
    assert inst.n_g == 15
    assert inst.n == 16
    assert solve_k2(inst.matrix) is None
    r = realise_from_colouring(inst, Colouring(3, (2, 1, 3, 1)))
    assert r.graph.vertex_count == 19
    assert helpers.graph_realises(r.graph, [list(x) for x in inst.matrix.entries])
    _report("criterion 08 (triangle-bearing 4-vertex gadget: NO at k=2, 19 at k=3)", t0, 5)


def test_c09_tree_round_trip():
    t0 = time.perf_counter()
    cases = helpers.minimal_tree_stream(200, seed0=5000)
    assert len(cases) >= 200
    for t, d in cases:
        assert t.vertex_count <= 12
        assert check_zareckii(d) is None
        result = solve_tree(d)
        assert result is not None
        assert helpers.trees_isomorphic(result.graph, t)
    _report("criterion 09 (200 minimal-tree round trips with isomorphism)", t0, 30)


def test_c10_tree_decider_equivalence(metric_cases):
    t0 = time.perf_counter()
    cases = [d for d, _ in metric_cases]
    cases += [d for _, d in helpers.minimal_tree_stream(40, seed0=5500)]
    cases.append(ALL_ONES)
    cases.append(helpers.dm(helpers.FOUR_CYCLE_METRIC))
    assert len(cases) >= 200
    for d in cases:
        report = check_zareckii(d)
        assert (report is None) == (solve_tree(d) is not None), d.entries
    parity = check_zareckii(ALL_ONES)
    assert parity[0] is ViolationKind.PARITY_TRIPLE
    fourp = check_zareckii(helpers.dm(helpers.FOUR_CYCLE_METRIC))
    assert fourp[0] is ViolationKind.FOUR_POINT
    _report("criterion 10 (condition check iff tree construction succeeds)", t0, 30)


def test_c11_bounds_sandwich(metric_cases):
    t0 = time.perf_counter()
    for d, _ in metric_cases:
        b = bounds(d)
        assert d.n <= b.lower <= b.upper
        minimum = None
        for k in range(4):
            if d.n * k + k * (k - 1) // 2 > 30:
                break
            if solve_exact(d, k) is not None:
                minimum = k
                break
        if minimum is not None:
            assert b.lower <= d.n + minimum, (d.entries, minimum)
        expansion = expand_elementary_paths(q_skeleton(d, b.q0))
        assert expansion.vertex_count == b.upper
        assert verify_realisation(expansion, d)
    _report("criterion 11 (lower bound below brute-force minimum; upper exact)", t0, 60)


GOLDEN_CASES = [
    ("validate_twos", ["validate", "twos.mat"], 0),
    ("validate_bad", ["validate", "bad.mat"], 2),
    ("solve_k0_ones", ["solve", "--k", "0", "ones.mat"], 0),
    ("solve_k0_twos", ["solve", "--k", "0", "twos.mat"], 1),
    ("solve_k0_eight", ["solve", "--k", "0", "eight.mat"], 1),
    ("solve_k1_twos", ["solve", "--k", "1", "twos.mat"], 0),
    ("solve_k1_eight", ["solve", "--k", "1", "eight.mat"], 0),
    ("solve_k2_twos", ["solve", "--k", "2", "twos.mat"], 0),
    ("solve_k2_adjacent", ["solve", "--k", "2", "ladder/adjacent.mat"], 0),
    ("solve_k2_far_pair", ["solve", "--k", "2", "ladder/far_pair.mat"], 1),
    ("solve_k2_even_nonmetric", ["solve", "--k", "2", "tree/even_nonmetric.mat"], 2),
    ("solve_exact_k1_twos", ["solve-exact", "--k", "1", "twos.mat"], 0),
    ("bounds_eight", ["bounds", "eight.mat"], 0),
    ("tree_twos", ["tree", "twos.mat", "--certify"], 0),
    ("tree_ones", ["tree", "ones.mat", "--certify"], 1),
    ("reduce_k2", ["reduce", "k2.graph"], 0),
    ("colour_realise_k2", ["colour-realise", "k2.graph", "k2.col"], 0),
    (
        "extract_k2",
        ["extract-colouring", "k2.graph", "k2_real.graph", "--k", "2"],
        0,
    ),
    ("verify_k2", ["verify", "k2_real.graph", "k2_reduced.mat"], 0),
    (
        "gen_metric",
        ["gen", "--mode", "random-metric", "--seed", "1", "--vertices", "6", "--anchors", "4"],
        0,
    ),
    (
        "gen_tree_metric",
        ["gen", "--mode", "random-tree-metric", "--seed", "1", "--anchors", "5"],
        0,
    ),
    ("gen_reduction", ["gen", "--mode", "reduction", "--input", "k2.graph"], 0),
    # An entry of 300 keeps int-tuple rows; two-digit entries make bytes rows
    # by bytes(map(int, ...)).
    ("validate_wide", ["validate", "rows/wide.mat"], 0),
    ("bounds_wide", ["bounds", "rows/wide.mat"], 0),
    ("tree_wide", ["tree", "--certify", "rows/wide.mat"], 0),
    ("solve_k2_wide", ["solve", "--k", "2", "rows/wide.mat"], 1),
    ("validate_two_digit", ["validate", "rows/two_digit.mat"], 0),
    ("bounds_two_digit", ["bounds", "rows/two_digit.mat"], 0),
    ("tree_two_digit", ["tree", "--certify", "rows/two_digit.mat"], 0),
    ("solve_k2_two_digit", ["solve", "--k", "2", "rows/two_digit.mat"], 1),
]


def test_c12_cli_golden_files(capsys):
    t0 = time.perf_counter()
    regen = os.environ.get("COMBDMR_REGEN_GOLDENS") == "1"
    for name, argv, expected_code in GOLDEN_CASES:
        resolved = [
            str(DATA / a) if a.endswith((".mat", ".graph", ".col")) else a
            for a in argv
        ]
        code = main(resolved)
        out = capsys.readouterr().out
        golden = GOLDEN / f"{name}.out"
        if regen:
            golden.write_text(out)
        else:
            assert golden.exists(), f"missing golden file {golden}"
            assert out == golden.read_text(), f"golden mismatch for {name}"
        assert code == expected_code, f"exit code mismatch for {name}"
    _report("criterion 12 (CLI golden bytes and exit codes)", t0, 5)
