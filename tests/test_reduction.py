import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from combdmr import generate
from combdmr.graph import Realisation, SearchSpaceTooLarge, SimpleGraph, verify_realisation
from combdmr.matrix import RawMatrix, validate
from combdmr.reduction import (
    Colouring,
    DisconnectedInput,
    ImproperColouring,
    MalformedRealisation,
    chromatic_number_bruteforce,
    extract_colouring,
    proper_colouring,
    realise_from_colouring,
    reduce,
)
from combdmr.solvers import solve_k1, solve_k2

K1 = SimpleGraph.make(1, 1, [])
K2 = SimpleGraph.make(2, 2, [(1, 2)])
PATH3 = SimpleGraph.make(3, 3, [(1, 2), (2, 3)])
QUAD = SimpleGraph.make(4, 4, helpers.QUAD_GRAPH_EDGES)


def test_reduce_quad_graph_sizes():
    inst = reduce(QUAD)
    assert inst.n_c == 4
    assert inst.n_g == 15
    assert inst.n == 16


def test_reduce_k2_matrix():
    inst = reduce(K2)
    assert inst.n_g == 4 and inst.n == 5
    assert inst.matrix.entries == (
        (0, 3, 1, 2, 2),
        (3, 0, 2, 1, 2),
        (1, 2, 0, 1, 3),
        (2, 1, 1, 0, 3),
        (2, 2, 3, 3, 0),
    )
    assert inst.subdivision_map == {(1, 2): (3, 4)}
    assert inst.nonadjacent_map == {}


def test_reduce_single_vertex():
    inst = reduce(K1)
    assert inst.n_g == 1 and inst.n == 2
    assert inst.matrix.entries == ((0, 2), (2, 0))


def test_reduce_path3_maps():
    inst = reduce(PATH3)
    assert inst.subdivision_map == {(1, 2): (4, 5), (2, 3): (6, 7)}
    assert inst.nonadjacent_map == {(1, 3): 8}
    assert inst.n_g == 8 and inst.n == 9


def test_reduce_rejects_disconnected():
    with pytest.raises(DisconnectedInput):
        reduce(SimpleGraph.make(3, 3, [(1, 2)]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Colouring(0, ()), "k must be positive"),
        (lambda: Colouring(2, (1, 3)), "colour 3 out of range 1..2"),
        (lambda: Colouring(2, (0, 1)), "colour 0 out of range 1..2"),
        (
            lambda: reduce(SimpleGraph.make(3, 2, [(1, 2), (2, 3)])),
            "every vertex of the input graph must be colourable",
        ),
        (lambda: reduce(SimpleGraph.make(3, 3, [(1, 2)])), "input graph must be connected"),
    ],
)
def test_reduction_refusals_and_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_reduction_matrix_always_validates_small_catalogue():
    # reduce() builds its matrix without a scan, on the proof in its
    # docstring; check the axioms with the standalone scan and with
    # validate() for every connected graph on up to 5 vertices.
    graphs = helpers.connected_graphs_up_to(5)
    assert len(graphs) == 31
    for g in graphs:
        inst = reduce(g)
        assert helpers.brute_is_distance_matrix(
            [list(r) for r in inst.matrix.entries]
        )
        assert validate(RawMatrix(inst.matrix.entries)) == inst.matrix
        nc, e = g.vertex_count, len(g.edges)
        assert inst.n_g == nc + 2 * e + (nc * (nc - 1) // 2 - e)
        assert inst.matrix.entries[-1] == tuple(
            [2] * nc + [3] * (inst.n_g - nc) + [0]
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=6, max_value=10),
    st.integers(0, 2**32),
    st.sampled_from((0.0, 0.2, 0.5, 0.9)),
)
def test_gadgets_of_random_sources_pass_the_triangle_scan(n_c, seed, p):
    g = generate.random_connected_graph(random.Random(seed), n_c, p)
    inst = reduce(g)
    assert validate(RawMatrix(inst.matrix.entries)) == inst.matrix


def test_closed_form_matrix_equals_the_gadget_search_on_small_sources():
    # reduce() builds its matrix from the source graph; the oracle searches
    # the whole gadget graph.  Every connected graph on up to 5 vertices,
    # then the complete graphs K1-K9 (no middle vertices at all).
    complete = [
        SimpleGraph.make(n, n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
        for n in range(1, 10)
    ]
    for g in helpers.connected_graphs_up_to(5) + complete:
        assert reduce(g).matrix == helpers.gadget_matrix_oracle(g), sorted(g.edges)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=6, max_value=16),
    st.integers(0, 2**32),
    st.sampled_from((0.0, 0.2, 0.5, 0.9)),
)
def test_closed_form_matrix_equals_the_gadget_search_on_random_sources(n_c, seed, p):
    g = generate.random_connected_graph(random.Random(seed), n_c, p)
    assert reduce(g).matrix == helpers.gadget_matrix_oracle(g)


def test_reduce_rejects_a_huge_declared_vertex_count_without_sizing_it():
    # Fewer than vertex_count - 1 edges cannot connect the graph, so no
    # adjacency of a million lists is built to find that out.
    g = SimpleGraph(10**6, 10**6, frozenset({(1, 2)}))
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedInput):
            reduce(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gadget_distance_facts():
    for g in (K2, PATH3, QUAD):
        inst = reduce(g)
        for u in range(1, g.vertex_count + 1):
            dist = helpers.bfs_distances(inst.n_g, inst.gadget.edges, u)
            for v in range(u + 1, g.vertex_count + 1):
                expected = 3 if (u, v) in g.edges else 2
                assert dist[v] == expected


def test_realise_k2_colouring():
    inst = reduce(K2)
    r = realise_from_colouring(inst, Colouring(2, (1, 2)))
    assert r.graph.vertex_count == 7
    assert helpers.graph_realises(r.graph, [list(x) for x in inst.matrix.entries])


def test_realise_k1_single_vertex():
    inst = reduce(K1)
    r = realise_from_colouring(inst, Colouring(1, (1,)))
    assert r.graph.vertex_count == 3
    assert r.graph.edges == frozenset({(1, 3), (2, 3)})


def test_realise_quad_three_colouring():
    inst = reduce(QUAD)
    r = realise_from_colouring(inst, Colouring(3, (2, 1, 3, 1)))
    assert r.graph.vertex_count == 19
    assert verify_realisation(r.graph, inst.matrix)


def test_realise_rejects_improper():
    inst = reduce(K2)
    with pytest.raises(ImproperColouring):
        realise_from_colouring(inst, Colouring(2, (1, 1)))


def test_extract_from_quad_realisation():
    inst = reduce(QUAD)
    r = realise_from_colouring(inst, Colouring(3, (2, 1, 3, 1)))
    c = extract_colouring(inst, r, 3)
    assert c.colours[1] == c.colours[3]  # the two non-adjacent corners agree
    assert len({c.colours[0], c.colours[1], c.colours[2]}) == 3


def test_extract_roundtrip_k2():
    inst = reduce(K2)
    c0 = Colouring(2, (1, 2))
    c = extract_colouring(inst, realise_from_colouring(inst, c0), 2)
    assert c.colours[0] != c.colours[1]


def test_extract_single_vertex():
    inst = reduce(K1)
    r = realise_from_colouring(inst, Colouring(1, (1,)))
    assert extract_colouring(inst, r, 1).colours == (1,)


def test_extract_rejects_missing_extra_neighbour():
    # No genuine realisation of a gadget matrix can leave an original vertex
    # without an extra neighbour, so smuggle in a realisation of a different
    # matrix to exercise the diagnostic.
    inst = reduce(K1)
    from combdmr.matrix import distance_matrix

    other = Realisation(
        SimpleGraph.make(2, 2, [(1, 2)]), distance_matrix([[0, 1], [1, 0]])
    )
    with pytest.raises(MalformedRealisation):
        extract_colouring(inst, other, 1)


def test_chromatic_numbers():
    assert chromatic_number_bruteforce(K1) == 1
    assert chromatic_number_bruteforce(K2) == 2
    assert chromatic_number_bruteforce(QUAD) == 3 == helpers.brute_chromatic(QUAD)


def test_chromatic_guard():
    big = SimpleGraph.make(11, 11, [(i, i + 1) for i in range(1, 11)])
    with pytest.raises(SearchSpaceTooLarge, match="11 vertices exceeds the guard of 10"):
        chromatic_number_bruteforce(big)


def test_proper_colouring_matches_chromatic():
    for g in helpers.connected_graphs_up_to(4):
        chi = helpers.brute_chromatic(g)
        assert proper_colouring(g, chi) is not None
        if chi > 1:
            assert proper_colouring(g, chi - 1) is None


def test_solver_equivalence_small_graphs():
    for g in helpers.connected_graphs_up_to(4):
        inst = reduce(g)
        chi = helpers.brute_chromatic(g)
        assert (solve_k1(inst.matrix) is not None) == (chi <= 1)
        assert (solve_k2(inst.matrix) is not None) == (chi <= 2)


def test_roundtrip_never_needs_more_colours():
    for g in helpers.connected_graphs_up_to(4):
        inst = reduce(g)
        chi = helpers.brute_chromatic(g)
        for k in range(chi, 5):
            c0 = proper_colouring(g, chi)
            lifted = Colouring(k, c0.colours)
            r = realise_from_colouring(inst, lifted)
            assert r.graph.vertex_count == inst.n + k
            back = extract_colouring(inst, r, k)
            assert len(set(back.colours)) <= len(set(lifted.colours))
            for u, v in g.edges:
                assert back.colours[u - 1] != back.colours[v - 1]
