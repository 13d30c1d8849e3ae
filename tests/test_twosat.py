import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from combdmr.twosat import TwoSatInstance, check, dimacs, solve


def test_simple_satisfiable():
    # The second instance is all units, so its model is the units.
    for inst, forced in (
        (TwoSatInstance(2, ((1, 2), (-1, 2))), {1: True}),
        (TwoSatInstance(3, ((1, 1), (-2, -2), (3, 3))), {0: True, 1: False, 2: True}),
    ):
        a = solve(inst)
        assert a is not None
        assert all(a[i] is value for i, value in forced.items())
        assert check(inst, a)


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
    assert check(inst, (True, False))
    inst2 = TwoSatInstance(1, ((-1, -1),))
    assert not check(inst2, (True,))
    assert check(TwoSatInstance(0, ()), ())


LENGTH_MISMATCH = "assignment length does not match variable count"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: check(TwoSatInstance(2, ((1, 2),)), (True,)), LENGTH_MISMATCH),
        (lambda: check(TwoSatInstance(0, ()), (False,)), LENGTH_MISMATCH),
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
            assert check(inst, a), f"seed {seed}"
            assert helpers.brute_satisfiable(inst), f"seed {seed}"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_soundness_property(rng):
    inst = _random_instance(rng, max_vars=10, max_clauses=16)
    a = solve(inst)
    if a is not None:
        assert check(inst, a)
    else:
        assert not helpers.brute_satisfiable(inst)
