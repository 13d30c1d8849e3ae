import random

import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from combdmr.solvers import _RUNGS, _implications
from combdmr.twosat import TwoSatInstance, dimacs, solve, solve_implications


def test_simple_satisfiable():
    # The second instance is all units, so its model is the units.
    for inst, forced in (
        (TwoSatInstance(2, ((1, 2), (-1, 2))), {1: True}),
        (TwoSatInstance(3, ((1, 1), (-2, -2), (3, 3))), {0: True, 1: False, 2: True}),
    ):
        a = solve(inst)
        assert a is not None
        assert all(a[i] is value for i, value in forced.items())
        assert helpers.check_assignment(inst, a)


def test_forced_contradiction():
    for v, clauses in (
        (1, ((1, 1), (-1, -1))),
        (2, ((2, 2), (1, 1), (-2, -2))),
        (2, ((1, 1), (-1, 2), (-2, -2))),
    ):
        assert solve(TwoSatInstance(v, clauses)) is None


def test_empty_instance_defaults_false():
    for v in (0, 1, 3):
        assert solve(TwoSatInstance(v, ())) == (False,) * v


def test_check_examples():
    inst = TwoSatInstance(2, ((1, 2),))
    assert helpers.check_assignment(inst, (True, False))
    inst2 = TwoSatInstance(1, ((-1, -1),))
    assert not helpers.check_assignment(inst2, (True,))
    assert helpers.check_assignment(TwoSatInstance(0, ()), ())


LENGTH_MISMATCH = "assignment length does not match variable count"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: helpers.check_assignment(TwoSatInstance(2, ((1, 2),)), (True,)), LENGTH_MISMATCH),
        (lambda: helpers.check_assignment(TwoSatInstance(0, ()), (False,)), LENGTH_MISMATCH),
        (lambda: TwoSatInstance(2, ((1, 3),)), "literal 3 over undeclared variable"),
        (lambda: TwoSatInstance(2, ((0, 1),)), "literal 0 over undeclared variable"),
    ],
)
def test_twosat_refusals_and_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_determinism():
    clauses = ((1, -2), (2, 3), (-1, 3))
    inst = TwoSatInstance(3, clauses)
    assert solve(inst) == solve(TwoSatInstance(3, clauses))


def test_dimacs_format():
    inst = TwoSatInstance(2, ((1, -2),))
    assert dimacs(inst) == "p cnf 2 1\n1 -2 0\n"


@pytest.mark.parametrize("lit", [0, 3, -3])
def test_literals_outside_the_declared_variables_are_rejected(lit):
    with pytest.raises(ValueError):
        TwoSatInstance(2, ((1, lit),))
    with pytest.raises(ValueError):
        TwoSatInstance(2, ((lit, -2),))


def _random_instance(rng, max_vars=16, max_clauses=24):
    v = rng.randrange(1, max_vars + 1)
    m = rng.randrange(0, max_clauses + 1)
    clauses = []
    for _ in range(m):
        a = rng.randrange(1, v + 1)
        b = rng.randrange(1, v + 1)
        la = -a if rng.random() < 0.5 else a
        lb = -b if rng.random() < 0.5 else b
        clauses.append((la, lb))
    return TwoSatInstance(v, tuple(clauses))


def test_completeness_against_exhaustive_enumeration():
    for seed in range(600):
        inst = _random_instance(random.Random(seed))
        a = solve(inst)
        if a is None:
            assert not helpers.brute_satisfiable(inst), f"seed {seed}"
        else:
            assert helpers.check_assignment(inst, a), f"seed {seed}"
            assert helpers.brute_satisfiable(inst), f"seed {seed}"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_soundness_property(rng):
    inst = _random_instance(rng, max_vars=10, max_clauses=16)
    a = solve(inst)
    if a is not None:
        assert helpers.check_assignment(inst, a)
    else:
        assert not helpers.brute_satisfiable(inst)


@st.composite
def implication_graphs(draw, max_vars=12):
    """The implication graph of a random 2-CNF whose variables each occur
    with both signs, only negated, or not at all."""
    roles = draw(st.lists(st.sampled_from(("both", "negated", "absent")), max_size=max_vars))
    literals = [
        lit
        for v, role in enumerate(roles, 1)
        for lit in {"both": (v, -v), "negated": (-v,), "absent": ()}[role]
    ]
    clauses = draw(st.lists(st.tuples(st.sampled_from(literals), st.sampled_from(literals)),
                            max_size=3 * len(roles))) if literals else []
    return helpers.implication_masks(TwoSatInstance(len(roles), tuple(clauses)))


@settings(max_examples=300, deadline=None)
@given(implication_graphs())
@example([])
@example(helpers.implication_masks(TwoSatInstance(3, ((-1, -2), (-2, -3), (-1, -1)))))
def test_the_live_literal_search_returns_the_full_search_model(out):
    # A variable that occurs only negated is searched through the live
    # successors of its positive literal; the model, or None, must be the
    # one the search over every literal finds.
    assert solve_implications(out) == helpers.kosaraju_oracle(out)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        helpers.metric_cases(),
        helpers.non_metric_cases(),
        st.builds(helpers.planted_or_tree_rows, st.integers(0, 2**32), st.integers(1, 200),
                  st.just("planted")),
    )
)
@example(helpers.gadget_rows("C5"))
@example(helpers.gadget_rows("C7"))
@example(helpers.gadget_rows("K4"))
@example(helpers.gadget_rows("W5"))
def test_the_live_literal_search_returns_the_full_search_model_on_the_ladder(rows):
    # phi2 and phi2' leave every anchor without a primitive partner dead.
    d = helpers.structural_matrix(rows)
    assume(d is not None)
    for rung in _RUNGS[2:]:
        out = _implications(rung, d)
        assert solve_implications(out) == helpers.kosaraju_oracle(out)
