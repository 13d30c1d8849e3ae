"""Relations between answers that need no oracle, at sizes beyond brute force.

Each test transforms a seeded instance in a way whose effect on the answer
is known in advance, and compares the deciders' answers before and after:

- relabelling the anchors changes none of the answers;
- a pendant anchor, joined to one anchor only, lies on no shortest path
  between two others, so the fewest extra vertices stay the same;
- deleting r anchors of a realisation leaves r more extra vertices at most;
- forcing a 2-SAT variable against a model of phi1, phi2 or phi2' leaves
  the anchor metric of the model's graph as it was (the paper's
  assignment-invariance lemma).

The loops are seeded and of fixed length, so the cost is fixed.
"""

import random

import pytest

import helpers
from combdmr import generate, twosat
from combdmr.graph import _assignment_graph, unit_graph
from combdmr.matrix import DistanceMatrix
from combdmr.reduction import reduce
from combdmr.solvers import _RUNGS, _implications, solve_k2
from combdmr.tree import check_zareckii, solve_tree


def _extras(d: DistanceMatrix):
    """``solve_k2``'s answer: None, or the count of extra vertices used."""
    r = solve_k2(d)
    return None if r is None else r.graph.vertex_count - d.n


def _answers(d: DistanceMatrix):
    tree_result = solve_tree(d)
    return (
        _extras(d),
        check_zareckii(d) is None,
        None if tree_result is None else tree_result.graph.vertex_count,
    )


def _planted(seed: int) -> DistanceMatrix:
    rng = random.Random(seed)
    n = rng.randrange(20, 121)
    return DistanceMatrix(
        tuple(map(tuple, helpers.planted_or_tree_rows(seed, n, "planted", rng.randrange(3))))
    )


def _tree(seed: int) -> DistanceMatrix:
    n = random.Random(seed).randrange(2, 41)
    return DistanceMatrix(tuple(map(tuple, helpers.planted_or_tree_rows(seed, n, "tree"))))


def _gadget(seed: int) -> DistanceMatrix:
    rng = random.Random(seed)
    source = generate.random_connected_graph(rng, rng.randrange(5, 11), rng.choice((0.0, 0.2, 0.5)))
    return reduce(source).matrix


def _permuted(d: DistanceMatrix, perm: list[int]) -> DistanceMatrix:
    e = d.entries
    return DistanceMatrix(tuple(tuple(e[i][j] for j in perm) for i in perm))


def _with_pendant(d: DistanceMatrix, w: int) -> DistanceMatrix:
    """d with anchor n + 1 joined to anchor w (0-based) only."""
    e = d.entries
    column = [x + 1 for x in e[w]]
    column[w] = 1
    rows = [tuple(row) + (x,) for row, x in zip(e, column)]
    return DistanceMatrix(tuple(rows) + (tuple(column) + (0,),))


@pytest.fixture(scope="module")
def cases():
    """Each seeded matrix with ``solve_k2``'s answer on it, built once."""
    matrices = (
        [_planted(seed) for seed in range(9000, 9060)]
        + [_tree(seed) for seed in range(9100, 9160)]
        + [_gadget(seed) for seed in range(9200, 9230)]
    )
    return [(d, _extras(d)) for d in matrices]


def test_relabelling_anchors_changes_no_answer(cases):
    rng = random.Random(16)
    for case, (d, _) in enumerate(cases):
        perm = list(range(d.n))
        rng.shuffle(perm)
        assert _answers(_permuted(d, perm)) == _answers(d), (case, perm)


def test_a_pendant_anchor_keeps_the_fewest_extras(cases):
    rng = random.Random(17)
    for case, (d, k) in enumerate(cases):
        w = rng.randrange(d.n)
        assert _extras(_with_pendant(d, w)) == k, (case, w)


def test_deleting_anchors_turns_them_into_extras(cases):
    rng = random.Random(18)
    for case, (d, k) in enumerate(cases):
        if k is None or k > 1:
            continue
        dropped = set(rng.sample(range(d.n), min(d.n - 1, rng.randrange(3 - k))))
        extras = _extras(_permuted(d, [i for i in range(d.n) if i not in dropped]))
        assert extras is not None and extras <= k + len(dropped), (case, sorted(dropped))


def test_forcing_a_variable_against_a_model_keeps_the_anchor_metric():
    rng = random.Random(19)
    for seed in range(9300, 9360):
        n = rng.randrange(20, 81)
        d = DistanceMatrix(
            tuple(map(tuple, helpers.planted_or_tree_rows(seed, n, "planted", 1 + seed % 2)))
        )
        unit = unit_graph(d)
        for rung in _RUNGS[1:]:
            extras, adjacent, _ = rung
            out = _implications(rung, d)
            model = twosat.solve_implications(out)
            if model is None:
                continue
            metric = helpers.anchor_metric(_assignment_graph(unit, (*model, adjacent), extras))
            v = len(model)
            for b in rng.sample(range(v), 8):
                # The arc x_b -> -x_b, or -x_b -> x_b, forces b against the model.
                forced = list(out)
                forced[b + v * model[b]] |= 1 << (b + v * (not model[b]))
                other = twosat.solve_implications(forced)
                if other is not None:
                    assert other[b] != model[b]
                    graph = _assignment_graph(unit, (*other, adjacent), extras)
                    assert helpers.anchor_metric(graph) == metric, (seed, extras, adjacent, b)
