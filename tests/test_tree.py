import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from combdmr import generate, tree
from combdmr.cli import main
from combdmr.graph import SimpleGraph, verify_realisation
from combdmr.matrix import DistanceMatrix, ValidationError, ViolationKind
from combdmr.tree import WeightedTree, build_weighted_tree, check_zareckii, solve_tree


# Bipartite-graph metrics and trees with one even cycle pass parity, so they
# reach the four-point stage of the certificate and of the builder.
even_cycle_draws = st.builds(
    helpers.bipartite_rows,
    st.integers(0, 2**32),
    st.integers(1, 25),
    st.sampled_from(("bipartite", "tree+edge")),
)


def anchor_rows(g: SimpleGraph):
    n = g.anchor_count
    return [
        [int(helpers.bfs_distances(g.vertex_count, g.edges, i)[j]) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


# -- condition checker ----------------------------------------------------------

def test_zareckii_single_pair_holds():
    assert check_zareckii(helpers.dm([[0, 2], [2, 0]])) is None


def test_zareckii_parity_witness():
    rep = check_zareckii(helpers.dm(helpers.ALL_ONES_3))
    assert rep is not None
    kind, witness = rep
    assert kind is ViolationKind.PARITY_TRIPLE
    assert witness == (1, 2, 3)


def test_zareckii_four_point_witness():
    rows = helpers.FOUR_CYCLE_METRIC
    rep = check_zareckii(helpers.dm(rows))
    assert rep is not None
    kind, witness = rep
    assert kind is ViolationKind.FOUR_POINT
    assert witness == (1, 2, 3, 4)
    i, j, k, l = (w - 1 for w in witness)
    sums = sorted(
        (
            rows[i][j] + rows[k][l],
            rows[i][k] + rows[j][l],
            rows[i][l] + rows[j][k],
        )
    )
    assert sums == [2, 2, 4]


def test_zareckii_matches_the_all_tuple_oracle():
    # Planted and tree draws rarely reach the four-point stage: most non-tree
    # metrics already fail parity.  The even-cycle draws always pass parity,
    # so they exercise it; so do the explicit examples, which are bipartite
    # or have their odd cycle away from anchor 1.
    kinds = set()
    six_cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    square_on_a_stem = [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5), (5, 6)]
    triangle_on_a_stem = [(1, 2), (2, 3), (3, 4), (2, 4), (4, 5)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(helpers.metric_cases(max_n=25), even_cycle_draws))
    @example(anchor_rows(SimpleGraph.make(6, 6, six_cycle)))
    @example(anchor_rows(SimpleGraph.make(6, 6, square_on_a_stem)))
    @example(anchor_rows(SimpleGraph.make(5, 5, triangle_on_a_stem)))
    def check(rows):
        try:
            d = helpers.dm(rows)
        except ValidationError:
            return
        report = check_zareckii(d)
        assert report == helpers.zareckii_oracle(rows)
        kinds.add(report and report[0])

    check()
    assert {ViolationKind.PARITY_TRIPLE, ViolationKind.FOUR_POINT} <= kinds


def test_zareckii_decides_yes_without_the_witness_scan(monkeypatch):
    # A metric that passes is decided by the spanning-tree check alone; the
    # O(n^3) quadruple scan runs only to name a witness.
    def no_scan(e):
        raise AssertionError("witness scan ran on a passing metric")

    monkeypatch.setattr(tree, "_four_point_witness", no_scan)
    assert check_zareckii(helpers.dm(helpers.planted_or_tree_rows(3, 150, "tree"))) is None
    # The path metric is a metric by construction; validating it at n = 300
    # would cost far more than the check.
    path = tuple(tuple(abs(i - j) for j in range(300)) for i in range(300))
    assert check_zareckii(DistanceMatrix(path)) is None


# -- weighted tree construction ---------------------------------------------------

def _weighted_anchor_distances(t: WeightedTree):
    n = t.anchor_count
    edges = [(u, v, w) for u, v, w in t.edges]
    closure = helpers.dijkstra_apsp(t.vertex_count, edges)
    return tuple(tuple(closure[i][j] for j in range(n)) for i in range(n))


def _doubled(rows):
    return tuple(tuple(2 * x for x in row) for row in rows)


def test_single_edge_tree():
    wt = build_weighted_tree(helpers.dm([[0, 2], [2, 0]]))
    assert wt == WeightedTree(2, 2, frozenset({(1, 2, 4)}))


def test_all_twos_four_is_star():
    wt = build_weighted_tree(
        helpers.dm([[0 if i == j else 2 for j in range(4)] for i in range(4)])
    )
    assert wt.vertex_count == 5
    assert wt.edges == frozenset({(1, 5, 2), (2, 5, 2), (3, 5, 2), (4, 5, 2)})


def test_star_is_the_unique_minimal_tree_by_enumeration():
    # Brute-force all labelled trees on up to 6 vertices whose first four
    # vertices are the anchors; the only minimal realising tree is the star.
    rows = [[0 if i == j else 2 for j in range(4)] for i in range(4)]
    minimal_realising = []
    for m in range(4, 7):
        for edges in helpers.all_labelled_trees(m):
            g = SimpleGraph.make(m, 4, edges)
            if anchor_rows(g) != rows:
                continue
            degree = {v: 0 for v in range(1, m + 1)}
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            if all(degree[v] != 1 for v in range(5, m + 1)):
                minimal_realising.append((m, tuple(sorted(edges))))
    assert minimal_realising == [(5, ((1, 5), (2, 5), (3, 5), (4, 5)))]


def half_weighted_tree(seed):
    """A random minimal tree with integer and half-integer weights, as its
    vertex count, its doubled edges and its (integer) anchor metric.

    Edge uv gets doubled weight 2r + (s(u) xor s(v)), with r >= 1 when the
    xor is 0.  s is 1 on every anchor and random on Steiner vertices, so each
    anchor path has an even doubled length.
    """
    rng = random.Random(seed)
    n = rng.randrange(1, 26)
    t = generate.random_minimal_tree(rng, n)
    s = [1] * (n + 1) + [rng.randrange(2) for _ in range(n, t.vertex_count)]
    edges = []
    for u, v in sorted(t.edges):
        odd = s[u] ^ s[v]
        edges.append((u, v, 2 * rng.randrange(1 - odd, 3) + odd))
    closure = helpers.dijkstra_apsp(t.vertex_count, edges)
    return t.vertex_count, edges, [[closure[i][j] // 2 for j in range(n)] for i in range(n)]


def test_builder_realises_half_integer_weighted_trees():
    # The builder has no check of its own: its tree must realise the matrix
    # by construction, half-integer branch points included.
    # The generator numbers ancestors first, so no anchor would land on a
    # Steiner point made for an earlier anchor; shuffling the anchor labels
    # on every other seed makes that common.
    odd_anchor_edges = 0
    for seed in range(9000, 9200):
        vertex_count, edges, rows = half_weighted_tree(seed)
        if seed % 2:
            perm = random.Random(seed).sample(range(len(rows)), len(rows))
            rows = [[rows[a][b] for b in perm] for a in perm]
        wt = build_weighted_tree(helpers.dm(rows))
        assert wt is not None
        assert wt.vertex_count == vertex_count
        assert _weighted_anchor_distances(wt) == _doubled(rows)
        odd_anchor_edges += sum(1 for u, _, w in edges if w % 2 and u <= len(rows))
    assert odd_anchor_edges >= 100


def test_steiner_points_are_numbered_in_the_order_they_were_made(tmp_path):
    # Anchors 3, 4 and 6 make Steiner points 7, 8 and 9 in turn; anchor 5
    # takes over 8, and the survivors 7 and 9 become 7 and 8.
    rows = [
        [0, 3, 3, 3, 1, 3],
        [3, 0, 2, 4, 2, 4],
        [3, 2, 0, 4, 2, 4],
        [3, 4, 4, 0, 2, 2],
        [1, 2, 2, 2, 0, 2],
        [3, 4, 4, 2, 2, 0],
    ]
    edges = {
        (1, 5, 2), (2, 7, 2), (3, 7, 2), (4, 8, 2), (5, 7, 2), (5, 8, 2), (6, 8, 2)
    }
    assert build_weighted_tree(helpers.dm(rows)) == WeightedTree(
        8, 6, frozenset(edges)
    )
    matrix = tmp_path / "six.mat"
    matrix.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    weighted = tmp_path / "six.wtree"
    graph = tmp_path / "six.graph"
    argv = ["tree", str(matrix), "--weighted-out", str(weighted), "--out", str(graph)]
    assert main(argv) == 0
    assert weighted.read_text() == (
        "1 5 2\n2 7 2\n3 7 2\n4 8 2\n5 7 2\n5 8 2\n6 8 2\n"
    )
    assert graph.read_text() == (
        "graph 8 6\n1 5\n2 7\n3 7\n4 8\n5 7\n5 8\n6 8\n"
    )


def test_builder_fails_exactly_on_a_four_point_violation():
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(helpers.metric_cases(max_n=25), even_cycle_draws))
    @example(helpers.FOUR_CYCLE_METRIC)
    @example(helpers.ALL_ONES_3)
    def check(rows):
        try:
            d = helpers.dm(rows)
        except ValidationError:
            return
        wt = build_weighted_tree(d)
        assert (wt is None) == (helpers.four_point_oracle(rows) is not None)
        if wt is not None:
            assert _weighted_anchor_distances(wt) == _doubled(rows)

    check()


def test_four_cycle_metric_has_no_tree():
    assert build_weighted_tree(helpers.dm(helpers.FOUR_CYCLE_METRIC)) is None


def test_half_integer_weights_are_built_then_rejected():
    # The triangle metric has a weighted star realisation on half weights,
    # so the builder succeeds but the unweighted decider must say no.
    d = helpers.dm(helpers.ALL_ONES_3)
    wt = build_weighted_tree(d)
    assert wt is not None
    assert wt.edges == frozenset({(1, 4, 1), (2, 4, 1), (3, 4, 1)})
    assert solve_tree(d) is None


# -- canonical transformation ------------------------------------------------------

def test_canonical_suppresses_degree_two():
    t = WeightedTree(3, 2, frozenset({(1, 3, 2), (2, 3, 2)}))
    out = helpers.canonical_transform(t)
    assert out == WeightedTree(2, 2, frozenset({(1, 2, 4)}))


def test_canonical_removes_leaf_then_reexamines():
    # Steiner leaf 5 hangs off Steiner 4; removing it leaves 4 with degree
    # three, so the rest of the star survives untouched.
    t = WeightedTree(
        5,
        3,
        frozenset({(1, 4, 2), (2, 4, 2), (3, 4, 2), (4, 5, 2)}),
    )
    out = helpers.canonical_transform(t)
    assert out == WeightedTree(4, 3, frozenset({(1, 4, 2), (2, 4, 2), (3, 4, 2)}))


def test_canonical_leaf_removal_cascades_into_merge():
    # Pruning the Steiner leaf 6 drops Steiner 5 to degree two, which then
    # merges into a single anchor-to-anchor edge.
    t = WeightedTree(
        6,
        4,
        frozenset({(1, 5, 2), (2, 5, 2), (5, 6, 2), (3, 4, 2), (2, 3, 2)}),
    )
    out = helpers.canonical_transform(t)
    assert out == WeightedTree(
        4, 4, frozenset({(1, 2, 4), (2, 3, 2), (3, 4, 2)})
    )


def test_canonical_idempotent_and_length_preserving():
    for _, d in helpers.minimal_tree_stream(20, seed0=6100):
        wt = build_weighted_tree(d)
        assert wt is not None
        again = helpers.canonical_transform(wt)
        assert again == wt


def test_canonical_preserves_anchor_distances_on_messy_trees():
    # Double every weight, then split one edge with a degree-2 Steiner vertex
    # and hang a Steiner leaf off it; the transform must undo both without
    # disturbing the anchor metric.
    for _, d in helpers.minimal_tree_stream(15, seed0=6800):
        wt = build_weighted_tree(d)
        edges = {(u, v, 2 * w) for u, v, w in wt.edges}
        doubled = WeightedTree(wt.vertex_count, wt.anchor_count, frozenset(edges))
        before = _weighted_anchor_distances(doubled)
        u, v, w = sorted(edges)[0]
        mid = wt.vertex_count + 1
        leaf = wt.vertex_count + 2
        edges.remove((u, v, w))
        edges.add((u, mid, w - 1))
        edges.add((min(mid, v), max(mid, v), 1))
        edges.add((mid, leaf, 3))
        messy = WeightedTree(wt.vertex_count + 2, wt.anchor_count, frozenset(edges))
        out = helpers.canonical_transform(messy)
        assert _weighted_anchor_distances(out) == before
        assert helpers.canonical_transform(out) == out


# -- full decider -------------------------------------------------------------------

def test_solve_tree_single_edge():
    r = solve_tree(helpers.dm([[0, 2], [2, 0]]))
    assert r.graph.vertex_count == 3
    assert r.graph.edges == frozenset({(1, 3), (2, 3)})


def test_solve_tree_star():
    d = helpers.dm([[0 if i == j else 2 for j in range(4)] for i in range(4)])
    r = solve_tree(d)
    assert r.graph.vertex_count == 5
    assert r.graph.edges == frozenset({(1, 5), (2, 5), (3, 5), (4, 5)})


def test_solve_tree_single_anchor():
    r = solve_tree(helpers.dm([[0]]))
    assert r.graph.vertex_count == 1


def _tree_run(tmp_path, capsys, entry):
    path = tmp_path / "pair.mat"
    path.write_text(f"0 {entry}\n{entry} 0\n")
    code = main(["tree", str(path)])
    return code, capsys.readouterr().out.splitlines()


def test_far_pair_exits_3_before_expanding(tmp_path, capsys, monkeypatch):
    # The largest parsable entry asks for 2^32 vertices.  A guard that let it
    # through reaches the fake and exits 4 at once instead of allocating.
    def no_expansion(*args):
        raise AssertionError("expanded past the guard")

    monkeypatch.setattr(tree, "_expand_paths", no_expansion)
    t0 = time.perf_counter()
    code, lines = _tree_run(tmp_path, capsys, 2**32 - 1)
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert lines == [
        f"error: {2**32} vertices exceeds the guard of {tree._MAX_VERTICES}",
        "verdict=NO vertices=0 extra=0",
    ]


def test_tree_guard_admits_exactly_its_vertex_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tree, "_MAX_VERTICES", 10)
    code, lines = _tree_run(tmp_path, capsys, 9)
    assert code == 0
    assert lines[-1] == "verdict=YES vertices=10 extra=8"
    code, lines = _tree_run(tmp_path, capsys, 10)
    assert code == 3
    assert lines == [
        "error: 11 vertices exceeds the guard of 10",
        "verdict=NO vertices=0 extra=0",
    ]


def test_decider_equivalence_on_random_metrics():
    cases = [d for d, _ in helpers.metric_stream(60, seed0=6200)]
    cases += [d for _, d in helpers.minimal_tree_stream(40, seed0=6300)]
    cases.append(helpers.dm(helpers.ALL_ONES_3))
    cases.append(helpers.dm(helpers.FOUR_CYCLE_METRIC))
    for d in cases:
        holds = check_zareckii(d) is None
        result = solve_tree(d)
        assert holds == (result is not None), d.entries
        if result is not None:
            assert verify_realisation(result.graph, d)


def test_weighted_tree_metrics_expand_correctly():
    # Random integer-weighted minimal trees: metrics reach the expansion
    # path with genuine multi-edge paths.
    rng = random.Random(42)
    for _ in range(40):
        t, _ = helpers.minimal_tree_stream(1, seed0=7000 + rng.randrange(10**6))[0]
        weights = {e: rng.randrange(1, 4) for e in t.edges}
        n = t.anchor_count
        closure = helpers.dijkstra_apsp(
            t.vertex_count, [(u, v, w) for (u, v), w in weights.items()]
        )
        rows = [[int(closure[i - 1][j - 1]) for j in range(1, n + 1)] for i in range(1, n + 1)]
        d = helpers.dm(rows)
        result = solve_tree(d)
        assert result is not None
        assert verify_realisation(result.graph, d)
        assert helpers.graph_realises(result.graph, rows)


def test_roundtrip_isomorphism_sample():
    for t, d in helpers.minimal_tree_stream(50, seed0=6400):
        result = solve_tree(d)
        assert result is not None
        assert helpers.trees_isomorphic(result.graph, t)


def test_uniqueness_under_anchor_relabelling():
    rng = random.Random(7)
    for t, d in helpers.minimal_tree_stream(10, seed0=6500):
        n = d.n
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        rows = [
            [d.entries[perm[i] - 1][perm[j] - 1] for j in range(n)] for i in range(n)
        ]
        permuted = helpers.dm(rows)
        result = solve_tree(permuted)
        assert result is not None
        # Relabel the source's anchors the same way; Steiner labels are free.
        inverse = {perm[i]: i + 1 for i in range(n)}
        relabelled = SimpleGraph.make(
            t.vertex_count,
            n,
            [
                (inverse.get(u, u), inverse.get(v, v))
                for u, v in t.edges
            ],
        )
        assert helpers.trees_isomorphic(result.graph, relabelled)


def test_outputs_are_minimal():
    for _, d in helpers.minimal_tree_stream(30, seed0=6600):
        result = solve_tree(d)
        graph = result.graph
        degree = {v: 0 for v in range(1, graph.vertex_count + 1)}
        for u, v in graph.edges:
            degree[u] += 1
            degree[v] += 1
        leaves = {v for v, deg in degree.items() if deg == 1}
        assert leaves <= set(range(1, d.n + 1))
        wt = build_weighted_tree(d)
        wdeg = {v: 0 for v in range(1, wt.vertex_count + 1)}
        for u, v, _ in wt.edges:
            wdeg[u] += 1
            wdeg[v] += 1
        assert all(wdeg[v] >= 3 for v in range(d.n + 1, wt.vertex_count + 1))


def test_subtree_law_nothing_to_prune():
    for _, d in helpers.minimal_tree_stream(15, seed0=6700):
        graph = solve_tree(d).graph
        non_anchor_leaves = [
            v
            for v in range(d.n + 1, graph.vertex_count + 1)
            if sum(1 for e in graph.edges if v in e) == 1
        ]
        assert non_anchor_leaves == []
        assert verify_realisation(graph, d)


def test_weighted_tree_invariants():
    with pytest.raises(ValueError):
        WeightedTree(2, 2, frozenset({(1, 2, 0)}))
    with pytest.raises(ValueError):
        WeightedTree(3, 3, frozenset({(1, 2, 2)}))
    with pytest.raises(ValueError):
        WeightedTree(4, 4, frozenset({(1, 2, 1), (3, 4, 1), (1, 3, 1), (2, 4, 1)}))
    with pytest.raises(ValueError):
        WeightedTree(2, 2, frozenset({(1, 3, 2)}))
    with pytest.raises(ValueError):
        WeightedTree(2, 2, frozenset({(0, 2, 2)}))


@pytest.mark.parametrize(
    "vertex_count, anchor_count, edges, message",
    [
        (4, 4, {(1, 2, 2), (2, 3, 2), (1, 3, 2)}, "tree is not connected"),
        (3, 3, {(1, 2, 2)}, "edge count does not match a tree"),
        (2, 2, {(1, 2, 0)}, "zero-weight edge"),
        (2, 2, {(2, 1, 2)}, "bad edge (2, 1)"),
        (2, 2, {(1, 1, 2)}, "bad edge (1, 1)"),
        (2, 2, {(1, 3, 2)}, "bad edge (1, 3)"),
        (2, 0, {(1, 2, 2)}, "anchor_count out of range"),
        (2, 3, {(1, 2, 2)}, "anchor_count out of range"),
    ],
)
def test_weighted_tree_rejects_malformed_input(
    vertex_count, anchor_count, edges, message
):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WeightedTree(vertex_count, anchor_count, frozenset(edges))
