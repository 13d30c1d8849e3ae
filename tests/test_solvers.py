import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from combdmr import generate, matrix, solvers, twosat
from combdmr.graph import (
    SearchSpaceTooLarge,
    SimpleGraph,
    _assignment_graph,
    _candidate_edges,
    q_skeleton,
    skeleton_distances,
    unit_graph,
    verify_realisation,
)
from combdmr.matrix import _first_triangle_violation, _row_masks
from combdmr.reduction import reduce
from combdmr.solvers import (
    _PHI1,
    _PHI2,
    _PHI2_ADJACENT,
    _RUNGS,
    _implications,
    _instance,
    _phi1_model,
    _proves_metric,
    bounds,
    build_phi1,
    build_phi2,
    build_phi2_prime,
    solve_exact,
    solve_k0,
    solve_k1,
    solve_k2,
)

ALL_TWOS = helpers.dm(helpers.ALL_TWOS_3)
ALL_ONES = helpers.dm(helpers.ALL_ONES_3)
EIGHT = helpers.dm(helpers.EIGHT_BY_EIGHT)
PHI1_UNSAT = helpers.dm([[0, 2, 2], [2, 0, 4], [2, 4, 0]])


def k2_gadget_matrix():
    return reduce(SimpleGraph.make(2, 2, [(1, 2)])).matrix


def induced_anchor_edges(g):
    return frozenset((u, v) for u, v in g.edges if v <= g.anchor_count)


# -- bounds --------------------------------------------------------------------

def test_bounds_examples():
    b1 = bounds(ALL_ONES)
    assert (b1.q0, b1.lower, b1.upper) == (1, 3, 3)
    b2 = bounds(helpers.dm([[0]]))
    assert (b2.q0, b2.lower, b2.upper) == (1, 1, 1)
    b = bounds(ALL_TWOS)
    assert (b.q0, b.lower, b.upper) == (helpers.q_zero_oracle(helpers.ALL_TWOS_3), 4, 6)


def test_bounds_eight_matrix():
    b = bounds(EIGHT)
    assert b.q0 == helpers.q_zero_oracle(helpers.EIGHT_BY_EIGHT)
    assert b.lower == 9
    # Pairs at distance 2 each cost one auxiliary vertex in the expansion.
    twos = sum(
        1
        for i in range(8)
        for j in range(i + 1, 8)
        if helpers.EIGHT_BY_EIGHT[i][j] == 2
    )
    assert b.upper == 8 + twos == 18


# -- k = 0 ---------------------------------------------------------------------

def test_k0_all_ones_is_triangle():
    g = solve_k0(ALL_ONES).graph
    assert g.vertex_count - g.anchor_count == 0
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_k0_no_cases():
    assert solve_k0(ALL_TWOS) is None
    assert solve_k0(EIGHT) is None


# -- formula builders ------------------------------------------------------------

def test_phi1_all_twos_forces_every_variable():
    inst = build_phi1(ALL_TWOS)
    assert inst.variable_count == 3
    assert len(inst.clauses) == 6
    assert all(a > 0 and a == b for a, b in inst.clauses)
    forced = {abs(a) for a, _ in inst.clauses}
    assert forced == {1, 2, 3}


def test_phi1_all_ones_empty():
    assert build_phi1(ALL_ONES).clauses == ()


def test_phi1_unsat_example():
    inst = build_phi1(PHI1_UNSAT)
    negatives = [(a, b) for a, b in inst.clauses if a < 0]
    assert negatives == [(-2, -3)]
    units = {abs(a) for a, b in inst.clauses if a > 0 and a == b}
    assert units == {1, 2, 3}
    assert not helpers.brute_satisfiable(inst)


def test_phi2_all_twos():
    inst = build_phi2(ALL_TWOS)
    assert inst.variable_count == 6
    assert len(inst.clauses) == 12
    assert all(a > 0 and b > 0 for a, b in inst.clauses)


def test_phi2_all_ones_empty():
    assert build_phi2(ALL_ONES).clauses == ()


def test_phi2_variable_numbering_contract():
    # Attachment of anchor i to the first extra vertex is variable i, to the
    # second extra vertex variable n + i.
    inst = build_phi2(ALL_TWOS)
    pair_12 = inst.clauses[:4]
    assert [(abs(a), abs(b)) for a, b in pair_12] == [
        (1, 4),
        (1, 5),
        (2, 4),
        (2, 5),
    ]


def test_phi2_restriction_matches_phi1():
    # With the second extra vertex switched off entirely, satisfying the
    # two-extras formula is exactly satisfying the one-extra formula.
    for d in (ALL_TWOS, PHI1_UNSAT, k2_gadget_matrix()):
        n = d.n
        phi1 = build_phi1(d)
        phi2 = build_phi2(d)
        models1 = set(helpers.enumerate_models(phi1))
        restricted = {
            m[:n]
            for m in helpers.enumerate_models(phi2)
            if not any(m[n:])
        }
        assert models1 == restricted


def test_phi2_prime_is_superset():
    d = k2_gadget_matrix()
    p2 = build_phi2(d).clauses
    p2p = build_phi2_prime(d).clauses
    assert p2p[: len(p2)] == p2


def test_phi2_prime_all_twos_identical_to_phi2():
    assert build_phi2_prime(ALL_TWOS).clauses == build_phi2(ALL_TWOS).clauses


def test_phi2_prime_far_pair_clauses():
    d = helpers.dm([[0, 5, 3, 2], [5, 0, 2, 3], [3, 2, 0, 5], [2, 3, 5, 0]])
    n = d.n
    clauses = set(build_phi2_prime(d).clauses)
    i, j = 1, 2  # distance 5
    assert (-i, -(n + j)) in clauses
    assert (-(n + i), -j) in clauses


def test_phi2_prime_k2_gadget_firing_depends_on_two_skeleton():
    # Every distance-3 pair of this matrix is already served by the
    # 2-skeleton, so the adjacent-extras formula adds nothing.
    d = k2_gadget_matrix()
    closure = helpers.skeleton_closure_oracle([list(r) for r in d.entries], 2)
    for i in range(d.n):
        for j in range(d.n):
            if d.entries[i][j] == 3:
                assert closure[i][j] == 3
    assert build_phi2_prime(d).clauses == build_phi2(d).clauses
    got = skeleton_distances(q_skeleton(d, 2))
    assert helpers.rows(got) == closure


@settings(max_examples=100, deadline=None)
@given(helpers.metric_cases())
def test_forced_pairs_match_their_definitions(rows):
    # phi1 forces pairs at distance 2 that the unit graph leaves further
    # apart; phi2' forces pairs at distance 3 that the 2-skeleton closure
    # leaves further apart.
    assume(helpers.first_violation_oracle(rows) is None)
    d = helpers.dm(rows)
    n = d.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    unit_edges = [(i, j) for i, j in pairs if rows[i - 1][j - 1] == 1]
    unit = [helpers.bfs_distances(n, unit_edges, i) for i in range(1, n + 1)]
    closure = helpers.skeleton_closure_oracle(rows, 2)
    want1 = [(i, j) for i, j in pairs if rows[i - 1][j - 1] == 2 and unit[i - 1][j] > 2]
    want3 = [(i, j) for i, j in pairs if rows[i - 1][j - 1] == 3 and closure[i - 1][j - 1] > 3]

    # Each forced pair of phi1 adds the units i, j; each of phi2' adds four
    # positive clauses after phi2's, the third of them (x1_i or x1_j).
    units = [abs(a) for a, _ in build_phi1(d).clauses if a > 0]
    assert list(zip(units[::2], units[1::2])) == want1
    extra = build_phi2_prime(d).clauses[len(build_phi2(d).clauses) :]
    positive = [(abs(a), abs(b)) for a, b in extra if a > 0]
    assert positive[2::4] == want3


# -- k = 1, k = 2 ----------------------------------------------------------------

def test_k1_all_twos_star():
    g = solve_k1(ALL_TWOS).graph
    assert g.vertex_count - g.anchor_count == 1
    assert g.vertex_count == 4
    assert g.edges == frozenset({(1, 4), (2, 4), (3, 4)})


def test_k1_eight_matrix_nine_vertices():
    out = solve_k1(EIGHT)
    assert out is not None and out.graph.vertex_count == 9
    assert helpers.graph_realises(out.graph, helpers.EIGHT_BY_EIGHT)


def test_k1_k2_gadget_no():
    d = k2_gadget_matrix()
    assert solve_k1(d) is None
    assert solve_exact(d, 1) is None


def test_k1_phi1_unsat_matrix_no():
    assert solve_k1(PHI1_UNSAT) is None
    assert solve_exact(PHI1_UNSAT, 1) is None


def test_k2_cascades_to_one_extra():
    g = solve_k2(ALL_TWOS).graph
    assert g.vertex_count - g.anchor_count == 1
    assert g.vertex_count == 4


def test_k2_k2_gadget_yes():
    d = k2_gadget_matrix()
    g = solve_k2(d).graph
    assert g.vertex_count - g.anchor_count == 2
    assert helpers.graph_realises(g, [list(r) for r in d.entries])


def test_k2_adjacent_extras_branch():
    d = helpers.dm([[0, 3], [3, 0]])
    assert solve_k1(d) is None
    out = solve_k2(d)
    assert out is not None
    g = out.graph
    assert g.vertex_count == 4
    assert (3, 4) in g.edges


def _count_row_masks(monkeypatch):
    calls = []
    row_masks = matrix._row_masks
    monkeypatch.setattr(
        matrix, "_row_masks", lambda levels, a: calls.append(a) or row_masks(levels, a)
    )
    return calls


def _spy_rungs(monkeypatch):
    # The ladder index of each rung whose implication graph is built.
    calls = []
    implications = solvers._implications
    monkeypatch.setattr(
        solvers, "_implications",
        lambda rung, d: calls.append(_RUNGS.index(rung)) or implications(rung, d),
    )
    return calls


def _spy_checks(monkeypatch):
    # The ladder index of each rung whose graph is checked: 0 for the unit
    # graph, 1 for phi1's, 2 for phi2's and 3 for phi2''s (adjacent extras).
    calls = []
    realisation = solvers.Realisation

    def spy(g, d):
        extras = g.vertex_count - g.anchor_count
        calls.append(extras + ((d.n + 1, d.n + 2) in g.edges))
        return realisation(g, d)

    monkeypatch.setattr(solvers, "Realisation", spy)
    return calls


def _planted_adjacent_rows():
    # Two hidden extras, adjacent: only phi2' realises these rows.
    return helpers.planted_or_tree_rows(200, 60, "planted", 2)


def test_k2_builds_the_distance_2_row_masks_once_per_decider(monkeypatch):
    # A planted matrix whose two hidden extras are adjacent: phi1 and phi2
    # give no realisation, phi2' does.  The test for skipping the unit
    # graph, phi1 and phi2' share one build of the a = 2 row masks, and
    # phi2' reuses the a = 3 ones that the test for skipping phi2's graph
    # built; every rung adds to one build of the unit graph.
    calls = _count_row_masks(monkeypatch)
    units = []
    monkeypatch.setattr(solvers, "unit_graph", lambda d: units.append(d) or unit_graph(d))
    rows = _planted_adjacent_rows()
    g = solve_k2(helpers.dm(rows)).graph
    assert g.vertex_count - g.anchor_count == 2
    assert (61, 62) in g.edges
    assert helpers.graph_realises(g, rows)
    assert calls == [2, 3]
    assert len(units) == 1


@pytest.mark.parametrize(
    "rows", [[[0, 3], [3, 0]], _planted_adjacent_rows()], ids=["pair", "planted"]
)
def test_k2_skips_phi2_on_a_primitive_pair_at_3(monkeypatch, rows):
    # A primitive pair at 3 needs two adjacent extras (the lower bound
    # n + q0 - 1), so phi2's graph is never checked.  phi2 is solved first,
    # since an unsatisfiable phi2 ends the ladder before the a = 3 row masks
    # are built; phi1 is read off its row masks.
    d = helpers.dm(rows)
    assert any(primitive for _, primitive in _row_masks(d.levels, 3))
    calls = _spy_rungs(monkeypatch)
    checks = _spy_checks(monkeypatch)
    g = solve_k2(d).graph
    assert g.vertex_count - g.anchor_count == 2
    assert calls == [2, 3]
    assert 2 not in checks
    assert checks[-1] == 3


def test_k2_unsatisfiable_phi2_ends_before_phi2_prime(monkeypatch):
    # The gadget of an odd cycle is a NO whose phi2 is unsatisfiable, so
    # phi2' (which contains it) is never built, and neither are the a = 3
    # row masks that the test for skipping phi2's graph would read.
    d = reduce(SimpleGraph.make(5, 5, helpers.cycle_edges(5))).matrix
    masks = _count_row_masks(monkeypatch)
    calls = _spy_rungs(monkeypatch)
    assert solve_k2(d) is None
    assert calls == [2]
    assert masks == [2]


@pytest.mark.parametrize(
    "solve, checks", [(solve_k0, [0]), (solve_k1, [1]), (solve_k2, [1])], ids=["k0", "k1", "k2"]
)
def test_the_unit_graph_is_checked_at_k0_only_on_a_primitive_pair_at_2(
    monkeypatch, solve, checks
):
    # All twos: every pair is primitive at 2, and the unit graph puts such a
    # pair beyond 2, so from k = 1 on its check is skipped; at k = 0 the
    # check is the whole decision.
    calls = _spy_checks(monkeypatch)
    assert (solve(ALL_TWOS) is None) == (solve is solve_k0)
    assert calls == checks


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        helpers.metric_cases(),
        helpers.non_metric_cases(),
        st.builds(helpers.planted_or_tree_rows, st.integers(0, 2**32), st.integers(1, 200),
                  st.just("planted")),
    ),
    st.booleans(),
)
@example(helpers.gadget_rows("C5"), False)
@example(helpers.gadget_rows("C7"), True)
@example(helpers.gadget_rows("K4"), False)
@example(helpers.gadget_rows("W5"), True)
@example([[0, 3], [3, 0]], False)
@example([[0, 3], [3, 0]], True)
@example([[0, 4, 1], [4, 0, 1], [1, 1, 0]], True)
def test_a_no_proof_holds_exactly_on_metrics_whose_primitive_pairs_it_reaches(rows, with_3):
    # The proof graph holds paths for the primitive pairs at 2, and at 3
    # when the decider built those masks.  A graph's anchor distances are a
    # metric, so a passing proof never lets a non-metric skip the scan; and
    # a metric is the shortest-path metric of its primitive pairs, so the
    # proof passes whenever it holds a path for each of them.
    d = helpers.structural_matrix(rows)
    assume(d is not None)
    masks = d.masks
    if with_3:
        masks[3]
    reach = 3 if with_3 else 2
    partners = helpers.primitive_partners_oracle(rows)
    top = max((rows[i][j] for i, js in enumerate(partners) for j in js), default=1)
    metric = _first_triangle_violation(d) is None
    proved = _proves_metric(d)
    if proved:
        assert metric
    assert proved == (metric and top <= reach)
    assert sorted(masks) == [2, 3][: reach - 1]


# -- exhaustive search ------------------------------------------------------------

def test_exact_all_twos_first_witness_is_star():
    out = solve_exact(ALL_TWOS, 1)
    assert out is not None
    assert out.graph.edges == frozenset({(1, 4), (2, 4), (3, 4)})


def test_exact_trivial_cases():
    assert solve_exact(ALL_ONES, 0) is not None
    assert solve_exact(ALL_TWOS, 0) is None


def test_exact_guard():
    big = helpers.dm(
        [[0 if i == j else 2 for j in range(8)] for i in range(8)]
    )
    with pytest.raises(SearchSpaceTooLarge):
        solve_exact(big, 4)
    # The guard is configurable; k=0 has no free edges at all.
    assert solve_exact(big, 0, max_free_edges=0) is None


def test_exact_rejects_a_negative_guard():
    # A negative guard is a bad parameter, like a negative k, and not a
    # search that grew too large.
    for k in (0, 1):
        with pytest.raises(ValueError, match="max_free_edges must be non-negative"):
            solve_exact(ALL_TWOS, k, max_free_edges=-1)


# -- cross-cutting properties -----------------------------------------------------

def test_assignment_invariance_small():
    # Every model of the one-extra formula induces the same anchor metric,
    # and that metric is the 2-skeleton closure.  The K2 gadget's formula is
    # unsatisfiable (two forced attachments at distance 3), so it only
    # exercises the agreement between the solver and the enumerator.
    for d in (ALL_TWOS, EIGHT, k2_gadget_matrix()):
        phi1 = build_phi1(d)
        metrics = {
            helpers.anchor_metric(_assignment_graph(unit_graph(d), (*m, False), 1))
            for m in helpers.enumerate_models(phi1)
        }
        if not metrics:
            assert twosat.solve(phi1) is None
            continue
        assert len(metrics) == 1
        assert metrics == {helpers.rows(skeleton_distances(q_skeleton(d, 2)))}


def test_oracle_agreement_sample():
    for d, _ in helpers.metric_stream(30, seed0=9000):
        for k in (0, 1, 2):
            poly = (solve_k0, solve_k1, solve_k2)[k](d)
            brute = solve_exact(d, k)
            assert (poly is not None) == (brute is not None), (d.entries, k)


def test_monotonicity_and_realisation_invariants():
    for d, _ in helpers.metric_stream(25, seed0=9500):
        answers = [solve_k0(d) is not None, solve_k1(d) is not None, solve_k2(d) is not None]
        for lo, hi in zip(answers, answers[1:]):
            assert not lo or hi
        outcomes = [solve_k0(d), solve_k1(d), solve_k2(d)]
        outcomes += [solve_exact(d, k) for k in (0, 1, 2)]
        for out in outcomes:
            if out is not None:
                g = out.graph
                assert verify_realisation(g, d)
                assert g.vertex_count <= d.n + 2
                assert induced_anchor_edges(g) == unit_graph(d).edges


@settings(max_examples=150, deadline=None)
@given(helpers.metric_cases())
def test_every_yes_is_the_unit_graph_plus_candidate_edges(rows):
    # The deciders and the brute-force oracle (k <= 2, under a guard of 12
    # free edges) build every graph with extra vertices from one list of
    # candidate edges on top of the unit graph.
    assume(helpers.first_violation_oracle(rows) is None)
    d = helpers.dm(rows)
    outcomes = [solve_k0(d), solve_k1(d), solve_k2(d)]
    for k in (0, 1, 2):
        try:
            outcomes.append(solve_exact(d, k, max_free_edges=12))
        except SearchSpaceTooLarge:
            pass
    base = unit_graph(d).edges
    for out in outcomes:
        if out is not None:
            g = out.graph
            extra = g.vertex_count - g.anchor_count
            assert extra == g.vertex_count - d.n
            assert induced_anchor_edges(g) == base
            assert g.edges - base <= set(_candidate_edges(d.n, extra))


def _gadget_rows(seed, n_c):
    g = generate.random_connected_graph(random.Random(seed), n_c, 0.4)
    return [list(row) for row in reduce(g).matrix.entries]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        helpers.metric_cases(),
        st.builds(_gadget_rows, st.integers(0, 2**32), st.integers(1, 7)),
    )
)
def test_implication_masks_solve_like_the_clause_lists(rows):
    # The deciders solve masks read off the matrix; the builders write the
    # same formulas as clauses.  Both must agree on satisfiability, and a
    # mask model must satisfy the clauses.
    assume(helpers.first_violation_oracle(rows) is None)
    d = helpers.dm(rows)
    for rung in _RUNGS[1:]:
        inst = _instance(rung, d)
        masks = _implications(rung, d)
        # Equal graphs have equal models, so the emitted graphs agree too.
        assert masks == helpers.implication_masks(inst)
        model = twosat.solve_implications(masks)
        assert (model is None) == (twosat.solve(inst) is None)
        assert model is None or helpers.check_assignment(inst, model)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        helpers.metric_cases(),
        st.builds(helpers.planted_or_tree_rows, st.integers(0, 2**32), st.integers(1, 200),
                  st.just("planted")),
        st.builds(_gadget_rows, st.integers(0, 2**32), st.integers(1, 7)),
    )
)
def test_phi1_model_is_the_model_the_implication_search_finds(rows):
    # phi1 is Horn, so the ladder reads its model off the a = 2 row masks;
    # the search over its implication graph must give the same model, or
    # None with it.  The argument needs only the structural check.
    d = helpers.structural_matrix(rows)
    assume(d is not None)
    expected = twosat.solve_implications(_implications(_RUNGS[1], d))
    assert _phi1_model(d) == expected


def test_phi1_model_on_fixed_matrices():
    for d, satisfiable in ((ALL_TWOS, True), (ALL_ONES, True), (EIGHT, True),
                           (PHI1_UNSAT, False), (k2_gadget_matrix(), False)):
        model = _phi1_model(d)
        assert (model is not None) == satisfiable
        assert model == twosat.solve_implications(_implications(_RUNGS[1], d))
    assert _phi1_model(ALL_TWOS) == (True, True, True)


@settings(max_examples=150, deadline=None)
@given(st.one_of(helpers.metric_cases(), helpers.non_metric_cases()))
@example(helpers.gadget_rows("C5"))
@example(helpers.gadget_rows("C7"))
@example(helpers.gadget_rows("K4"))
@example(helpers.gadget_rows("W5"))
def test_one_sided_row_masks_match_the_two_sided_pass(rows):
    # Every matrix that passes the structural check, metric or not: the
    # one-sided pass needs only symmetry to test a partner from its row.
    d = helpers.structural_matrix(rows)
    assume(d is not None)
    for a in (1, 2, 3, 4):
        assert _row_masks(d.levels, a) == helpers.row_masks_oracle(d, a), a


def _dimacs_formulas(text):
    """(variable count, clauses) of each formula in a DIMACS text."""
    formulas = []
    for line in text.splitlines():
        if line.startswith("p cnf "):
            formulas.append((int(line.split()[2]), []))
        elif not line.startswith("c "):
            a, b, zero = map(int, line.split())
            assert zero == 0
            formulas[-1][1].append((a, b))
    return [(v, tuple(clauses)) for v, clauses in formulas]


def test_the_rung_table_holds_what_the_ladder_relies_on():
    assert [extras for extras, _, _ in _RUNGS] == [0, 1, 2, 2]
    assert [adjacent for _, adjacent, _ in _RUNGS] == [False, False, False, True]
    # The unit graph needs no formula; only phi2' reads the a = 3 row masks.
    assert _RUNGS[0][2] == {}
    assert [{a for a, _ in table} for _, _, table in _RUNGS[1:]] == [{2}, {2}, {2, 3}]
    # phi2' holds every phi2 entry over the same variables, which is why an
    # unsatisfiable phi2 ends the walk.
    assert _RUNGS[3][2].items() >= _RUNGS[2][2].items()


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        helpers.metric_cases(),
        st.builds(_gadget_rows, st.integers(0, 2**32), st.integers(1, 7)),
    )
)
def test_each_builder_writes_the_clauses_of_its_rung_in_the_dump(rows):
    # solve --dump-cnf renders the rungs itself, so the builders that the
    # tests and the traced bench call must stay in step with it.
    assume(helpers.first_violation_oracle(rows) is None)
    d = helpers.dm(rows)
    dumped = _dimacs_formulas(solvers.ladder_cnf(d, 2))
    built = [build_phi1(d), build_phi2(d), build_phi2_prime(d)]
    assert dumped == [(inst.variable_count, inst.clauses) for inst in built]
    assert _dimacs_formulas(solvers.ladder_cnf(d, 1)) == dumped[:1]
    assert solvers.ladder_cnf(d, 0) == "c no formula involved for k=0\n"


@pytest.mark.parametrize("table", [_PHI1, _PHI2, _PHI2_ADJACENT])
def test_every_clause_table_entry_is_symmetric_in_the_pair(table):
    # _implications adds only the arcs that leave i's literals and relies
    # on the rows of j for the rest, which needs this symmetry.
    for kind, template in table.items():
        for i, j, n in ((1, 2, 2), (3, 5, 7), (2, 9, 9)):
            assert set(map(frozenset, template(i, j, n))) == set(
                map(frozenset, template(j, i, n))
            ), kind


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        helpers.metric_cases(max_n=12),
        st.builds(helpers.planted_or_tree_rows, st.integers(0, 2**32), st.integers(1, 5),
                  st.just("planted")),
        st.builds(_gadget_rows, st.integers(0, 2**32), st.integers(1, 3)),
    ),
    st.integers(0, 2),
)
def test_solve_exact_finds_the_first_mask_the_verifier_accepts(rows, k):
    # solve_exact checks each mask by one BFS per anchor, not by the
    # verifier; both must pick the same first mask, or none.
    assume(helpers.first_violation_oracle(rows) is None)
    d = helpers.dm(rows)
    try:
        out = solve_exact(d, k, max_free_edges=12)
    except SearchSpaceTooLarge:
        assume(False)
    expected = helpers.first_verified_assignment(d, k)
    assert (out is not None) == (expected is not None)
    assert out is None or out.graph == expected


@pytest.mark.parametrize("seed", range(12))
def test_planted_matrices_beyond_brute_force_are_yes_at_their_hidden_count(seed):
    hidden = seed % 3
    rows = helpers.planted_or_tree_rows(seed, (40, 80, 120, 200)[seed // 3], "planted", hidden)
    g = (solve_k0, solve_k1, solve_k2)[hidden](helpers.dm(rows)).graph
    assert g.vertex_count - g.anchor_count <= hidden
    assert helpers.graph_realises(g, rows)


@pytest.mark.parametrize(
    "n_c, edges, bipartite",
    [
        (5, helpers.cycle_edges(5), False),
        (7, helpers.cycle_edges(7), False),
        (4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)], False),
        (6, helpers.cycle_edges(5) + [(i, 6) for i in range(1, 6)], False),  # wheel
        (6, helpers.cycle_edges(6), True),
        (8, helpers.cycle_edges(8), True),
        (6, [(i, j) for i in range(1, 4) for j in range(4, 7)], True),  # K3,3
        (9, [(i, i + 1) for i in range(1, 9) if i % 3] + [(i, i + 3) for i in range(1, 7)],
         True),  # 3 x 3 grid
    ],
)
def test_gadgets_beyond_brute_force_are_yes_exactly_for_bipartite_sources(
    n_c, edges, bipartite
):
    # chi(source) <= 2 iff the gadget needs at most two extra vertices.
    inst = reduce(SimpleGraph.make(n_c, n_c, edges))
    out = solve_k2(inst.matrix)
    assert (out is not None) == bipartite
    if bipartite:
        rows = [list(r) for r in inst.matrix.entries]
        assert helpers.graph_realises(out.graph, rows)
