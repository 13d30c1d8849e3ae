import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from combdmr import generate, reduction, tree
from combdmr.graph import (
    INF,
    Realisation,
    SimpleGraph,
    anchor_distances,
    bfs_apsp,
    expand_elementary_paths,
    q_skeleton,
    q_zero,
    skeleton_distances,
    unit_graph,
    verify_realisation,
)
from combdmr.solvers import solve_k2


def test_bfs_triangle():
    g = SimpleGraph.make(3, 3, [(1, 2), (2, 3), (1, 3)])
    dist = bfs_apsp(g)
    assert dist.dist(1, 2) == dist.dist(1, 3) == dist.dist(2, 3) == 1


def test_bfs_star_anchor_distances():
    g = SimpleGraph.make(4, 3, [(1, 4), (2, 4), (3, 4)])
    dist = anchor_distances(g)
    assert helpers.rows(dist) == ((0, 2, 2), (2, 0, 2), (2, 2, 0))


def test_bfs_disconnected_is_inf():
    g = SimpleGraph.make(2, 2, [])
    assert bfs_apsp(g).dist(1, 2) == INF


@st.composite
def bfs_cases(draw):
    """A graph on 1-12 vertices, or on 255, 256 or 257, so that distances
    reach the top of a byte and pass it, with an anchor prefix of any
    length.  Small graphs take random edges at a drawn density; large ones
    are a path through every vertex in random order, with up to two edges
    cut (so some pairs are unreachable) and up to three chords added."""
    v = draw(st.one_of(st.integers(1, 12), st.sampled_from((255, 256, 257))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if v <= 12:
        p = draw(st.sampled_from((0.0, 0.2, 0.5, 1.0)))
        edges = {(a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1) if rng.random() < p}
    else:
        order = rng.sample(range(1, v + 1), v)
        edges = set(zip(order, order[1:]))
        for _ in range(draw(st.integers(0, 2))):
            edges.discard(rng.choice(sorted(edges)))
        for _ in range(draw(st.integers(0, 3))):
            edges.add(tuple(rng.sample(range(1, v + 1), 2)))
    return SimpleGraph.make(v, draw(st.integers(1, v)), edges)


@settings(max_examples=60, deadline=None)
@given(bfs_cases())
@example(SimpleGraph.make(257, 257, [(v, v + 1) for v in range(1, 257)]))
@example(SimpleGraph.make(256, 3, [(v, v + 1) for v in range(1, 256)]))
@example(SimpleGraph.make(5, 4, [(1, 5), (2, 3)]))
def test_all_pairs_distances_match_the_standalone_bfs(g):
    want = tuple(
        tuple(helpers.bfs_distances(g.vertex_count, g.edges, s)[1:])
        for s in range(1, g.vertex_count + 1)
    )
    a = g.anchor_count
    got, anchors = bfs_apsp(g).entries, anchor_distances(g).entries
    assert got == want
    assert anchors == tuple(row[:a] for row in want[:a])
    for row in got + anchors:
        assert all(type(x) is int or x is math.inf for x in row)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        SimpleGraph.make(2, 2, [(1, 1)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimpleGraph(0, 0, frozenset()), "graph needs at least one vertex"),
        (lambda: SimpleGraph(2, 0, frozenset()), "anchor_count out of range"),
        (lambda: SimpleGraph(2, 3, frozenset()), "anchor_count out of range"),
        (lambda: SimpleGraph(2, 2, frozenset({(2, 1)})), "bad edge (2, 1)"),
        (lambda: SimpleGraph(2, 2, frozenset({(1, 3)})), "bad edge (1, 3)"),
        (lambda: SimpleGraph(2, 2, frozenset({(0, 1)})), "bad edge (0, 1)"),
        (lambda: SimpleGraph.make(2, 2, [(1, 1)]), "self-loop at 1"),
        (lambda: q_skeleton(helpers.dm(helpers.ALL_TWOS_3), 0), "q must be positive"),
    ],
)
def test_graph_refusals_and_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_unit_graph_all_ones_is_triangle():
    d = helpers.dm(helpers.ALL_ONES_3)
    assert unit_graph(d).edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_unit_graph_all_twos_is_empty():
    d = helpers.dm(helpers.ALL_TWOS_3)
    assert unit_graph(d).edges == frozenset()


def test_unit_graph_eight_matrix():
    d = helpers.dm(helpers.EIGHT_BY_EIGHT)
    expected = {(1, 5), (1, 8), (2, 6), (2, 8), (3, 6), (3, 7), (4, 5), (4, 7)}
    assert unit_graph(d).edges == frozenset(expected)


def test_q_skeleton_all_twos():
    d = helpers.dm(helpers.ALL_TWOS_3)
    assert q_skeleton(d, 1).weighted_edges == ()
    assert q_skeleton(d, 2).weighted_edges == ((1, 2, 2), (1, 3, 2), (2, 3, 2))
    empty = skeleton_distances(q_skeleton(d, 1))
    assert all(
        empty.dist(i, j) == INF for i in (1, 2, 3) for j in (1, 2, 3) if i != j
    )


def test_q_skeleton_eight_unit_edges():
    d = helpers.dm(helpers.EIGHT_BY_EIGHT)
    assert q_skeleton(d, 1).weighted_edges == (
        (1, 5, 1),
        (1, 8, 1),
        (2, 6, 1),
        (2, 8, 1),
        (3, 6, 1),
        (3, 7, 1),
        (4, 5, 1),
        (4, 7, 1),
    )


def test_skeleton_distances_match_dijkstra_oracle():
    d = helpers.dm(helpers.EIGHT_BY_EIGHT)
    for q in range(1, 5):
        got = skeleton_distances(q_skeleton(d, q))
        want = helpers.skeleton_closure_oracle(helpers.EIGHT_BY_EIGHT, q)
        assert helpers.rows(got) == want


def test_skeleton_distance_example_via_unit_path():
    d = helpers.dm(helpers.EIGHT_BY_EIGHT)
    one = skeleton_distances(q_skeleton(d, 1))
    assert one.dist(1, 2) == 2  # through the shared unit neighbour


def test_q_zero_small_cases():
    assert q_zero(helpers.dm(helpers.ALL_ONES_3)) == 1
    assert q_zero(helpers.dm([[0]])) == 1
    d = helpers.dm(helpers.ALL_TWOS_3)
    assert q_zero(d) == helpers.q_zero_oracle(helpers.ALL_TWOS_3) == 2


def test_q_zero_eight_matrix_frozen():
    d = helpers.dm(helpers.EIGHT_BY_EIGHT)
    assert helpers.q_zero_oracle(helpers.EIGHT_BY_EIGHT) == 2
    assert q_zero(d) == 2


def test_skeleton_ordering_chain():
    for d, _ in helpers.metric_stream(30, seed0=2000):
        m = max(max(row) for row in d.entries)
        prev = None
        for q in range(1, m + 1):
            cur = skeleton_distances(q_skeleton(d, q))
            for i in range(d.n):
                for j in range(d.n):
                    assert cur.entries[i][j] >= d.entries[i][j]
                    if prev is not None:
                        assert prev.entries[i][j] >= cur.entries[i][j]
            prev = cur
        assert prev is not None and helpers.rows(prev) == helpers.rows(d)


def test_expand_all_twos_gives_six_cycle():
    d = helpers.dm(helpers.ALL_TWOS_3)
    g = expand_elementary_paths(q_skeleton(d, 2))
    assert g.vertex_count == 6
    assert len(g.edges) == 6
    assert all(len([e for e in g.edges if v in e]) == 2 for v in range(1, 7))
    assert verify_realisation(g, d)


def test_expand_single_long_edge():
    d = helpers.dm([[0, 3], [3, 0]])
    g = expand_elementary_paths(q_skeleton(d, 3))
    assert g.vertex_count == 4
    assert g.edges == frozenset({(1, 3), (3, 4), (2, 4)})


def test_expand_skeleton_realises_everything():
    for d, _ in helpers.metric_stream(40, max_vertices=7, seed0=3000):
        g = expand_elementary_paths(q_skeleton(d, q_zero(d)))
        assert verify_realisation(g, d)
        assert helpers.graph_realises(g, [list(r) for r in d.entries])


def test_verify_realisation_star_vs_path():
    d = helpers.dm(helpers.ALL_TWOS_3)
    star = SimpleGraph.make(4, 3, [(1, 4), (2, 4), (3, 4)])
    path = SimpleGraph.make(3, 3, [(1, 2), (2, 3)])
    assert verify_realisation(star, d)
    assert not verify_realisation(path, d)


@settings(max_examples=300, deadline=None)
@given(helpers.graph_matrix_cases())
# Every walk ends at an empty level with the other anchor still unseen.
@example((SimpleGraph(3, 2, frozenset()), [[0, 2], [2, 0]]))
def test_verify_realisation_matches_the_standalone_bfs(case):
    g, rows = case
    assert verify_realisation(g, helpers.dm(rows)) == helpers.graph_realises(g, rows)


def test_verify_realisation_names_mismatched_anchor_counts():
    d = helpers.dm(helpers.ALL_TWOS_3)
    with pytest.raises(ValueError, match="^graph has 2 anchors but the matrix has dimension 3$"):
        verify_realisation(SimpleGraph.make(3, 2, [(1, 3), (2, 3)]), d)


def test_verify_realisation_sizes_its_masks_by_the_edges_not_the_header():
    # Vertices above every edge endpoint are isolated and never reached, so
    # a header declaring a million vertices costs nothing to check.
    d = helpers.dm([[0, 1], [1, 0]])
    g = SimpleGraph(10**6, 2, frozenset({(1, 2)}))
    far = SimpleGraph(10**6, 2, frozenset({(1, 3), (2, 3)}))
    tracemalloc.start()
    try:
        assert verify_realisation(g, d)
        assert not verify_realisation(far, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_verify_realisation_memory_grows_with_vertices_times_anchors():
    # The search from both ends of a path of 10 001 vertices keeps two bits
    # per vertex, not a neighbour mask as wide as the graph.
    d = helpers.dm([[0, 10000], [10000, 0]])
    path = [1, *range(3, 10002), 2]
    g = SimpleGraph.make(10001, 2, zip(path, path[1:]))
    tracemalloc.start()
    try:
        assert verify_realisation(g, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _yes_case(family, seed):
    """Rows with n = 40..120 anchors and the deciders' YES graph for them."""
    n = 40 + 80 * seed // 3
    if family == "gadget":
        # A tree source is bipartite, so its gadget (n = 44..119) takes two extras.
        source = generate.random_connected_graph(random.Random(seed), 8 + 2 * seed, 0.0)
        d = reduction.reduce(source).matrix
        return [list(row) for row in d.entries], solve_k2(d).graph
    rows = helpers.planted_or_tree_rows(seed, n, family)
    d = helpers.dm(rows)
    r = tree.solve_tree(d) if family == "tree" else solve_k2(d)
    return rows, r.graph


@pytest.mark.parametrize("family", ["planted", "gadget", "tree"])
@pytest.mark.parametrize("seed", range(4))
def test_verify_realisation_matches_the_standalone_bfs_at_larger_n(family, seed):
    rows, g = _yes_case(family, seed)
    rng = random.Random(seed)
    n, m, edges = g.anchor_count, g.vertex_count, sorted(g.edges)
    cut = rng.randrange(1, n + 1)
    at = rng.randrange(1, m + 1)
    # Longer than the largest entry: its far end is still being reached
    # after the last level the matrix asks about.
    trail = [at, *range(m + 1, m + max(map(max, rows)) + 3)]
    variants = [
        g,
        SimpleGraph(m, n, frozenset(edges[:-1] if seed % 2 else edges[1:])),
        SimpleGraph(m, n, frozenset(e for e in edges if cut not in e)),
        SimpleGraph.make(trail[-1], n, edges + list(zip(trail, trail[1:]))),
    ]
    d = helpers.dm(rows)
    answers = [verify_realisation(h, d) for h in variants]
    assert answers == [helpers.graph_realises(h, rows) for h in variants]
    assert answers[0] and not answers[2] and answers[3]


def test_realisation_constructor_rejects_mismatch():
    d = helpers.dm(helpers.ALL_TWOS_3)
    path = SimpleGraph.make(3, 3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Realisation(path, d)


def test_bfs_agrees_with_unit_weight_skeleton():
    for d, _ in helpers.metric_stream(20, seed0=4000):
        s = q_skeleton(d, 1)
        unit_dist = skeleton_distances(s)
        assert helpers.rows(unit_dist) == helpers.rows(bfs_apsp(unit_graph(d)))


@settings(max_examples=100, deadline=None)
@given(helpers.metric_cases())
def test_q_zero_matches_the_skeleton_closure_oracle(rows):
    assume(helpers.first_violation_oracle(rows) is None)
    assert q_zero(helpers.dm(rows)) == helpers.q_zero_oracle(rows)
