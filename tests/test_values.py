"""Value semantics of the library's record types.

Each record is built positionally from its fields, compares equal to a
record of the same class with equal fields (and to nothing else), hashes by
its fields where they are hashable, refuses assignment, and prints as
``Name(field=value, ...)``.
"""

import math
from pathlib import Path

import pytest

import helpers
from combdmr import reduction
from combdmr.graph import ExtendedDistances, Realisation, SimpleGraph, WeightedSkeleton
from combdmr.matrix import DistanceMatrix, RawMatrix, check_structure
from combdmr.reduction import Colouring
from combdmr.solvers import Bounds
from combdmr.textio import parse_matrix
from combdmr.tree import WeightedTree
from combdmr.twosat import TwoSatInstance

PATH3 = ((0, 1, 2), (1, 0, 1), (2, 1, 0))
DATA = Path(__file__).parent / "data"


def _fields():
    """Per type: a builder of fresh instances from equal field values, and
    the name of one field."""
    path = SimpleGraph(3, 3, frozenset({(1, 2), (2, 3)}))
    return {
        RawMatrix: (lambda: RawMatrix(PATH3), "entries"),
        DistanceMatrix: (lambda: DistanceMatrix(PATH3), "entries"),
        SimpleGraph: (lambda: SimpleGraph(3, 3, frozenset({(1, 2), (2, 3)})), "edges"),
        ExtendedDistances: (lambda: ExtendedDistances(((0, math.inf), (math.inf, 0))), "entries"),
        WeightedSkeleton: (lambda: WeightedSkeleton(3, ((1, 2, 1), (2, 3, 1))), "n"),
        Realisation: (lambda: Realisation(path, DistanceMatrix(PATH3)), "graph"),
        Colouring: (lambda: Colouring(2, (1, 2, 1)), "k"),
        reduction.GadgetInstance: (lambda: reduction.reduce(path), "source"),
        Bounds: (lambda: Bounds(2, 4, 5), "q0"),
        WeightedTree: (lambda: WeightedTree(3, 2, frozenset({(1, 3, 1), (2, 3, 3)})), "edges"),
        TwoSatInstance: (lambda: TwoSatInstance(2, ((1, -2), (2, 2))), "clauses"),
    }


TYPES = list(_fields())


def test_every_record_type_is_covered():
    assert len(TYPES) == 11


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_equal_fields_make_equal_records(cls):
    build, _ = _fields()[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls is reduction.GadgetInstance:
        # Its maps are dicts, so it has no hash.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_assigning_a_field_raises_attribute_error(cls):
    build, field = _fields()[cls]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, field) == before


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_a_record_never_equals_a_record_of_another_type(cls):
    build, _ = _fields()[cls]
    record = build()
    for other_cls in TYPES:
        if other_cls is not cls:
            assert record != _fields()[other_cls][0]()
    assert record != object() and record.__eq__(object()) is NotImplemented


def test_two_types_with_the_same_field_values_differ():
    g = SimpleGraph(1, 1, frozenset())
    t = WeightedTree(1, 1, frozenset())
    assert (g.vertex_count, g.anchor_count, g.edges) == (t.vertex_count, t.anchor_count, t.edges)
    assert g != t and t != g
    assert RawMatrix(PATH3) != DistanceMatrix(PATH3)
    assert DistanceMatrix(PATH3) != RawMatrix(PATH3)
    assert g.__eq__(t) is NotImplemented


def test_different_fields_make_different_records():
    assert SimpleGraph(3, 3, frozenset({(1, 2)})) != SimpleGraph(3, 2, frozenset({(1, 2)}))
    assert Bounds(2, 4, 5) != Bounds(2, 4, 6)
    assert Colouring(2, (1, 2)) != Colouring(3, (1, 2))


def test_read_levels_do_not_count_towards_equality_or_hash():
    read, fresh = DistanceMatrix(PATH3), DistanceMatrix(PATH3)
    assert read.levels[0] == {0: 1, 1: 2, 2: 4}
    assert "levels" in vars(read) and "levels" not in vars(fresh)
    assert read == fresh and fresh == read
    assert hash(read) == hash(fresh)
    with pytest.raises(AttributeError):
        read.levels = ()


def test_read_masks_do_not_count_towards_equality_or_hash():
    read, fresh = DistanceMatrix(PATH3), DistanceMatrix(PATH3)
    # The pair at 2 splits through 2.
    assert read.masks[2] == [(0, 0), (0, 0), (0, 0)]
    assert "masks" in vars(read) and "masks" not in vars(fresh)
    assert read == fresh and fresh == read
    assert hash(read) == hash(fresh)
    with pytest.raises(AttributeError):
        read.masks = ()


def test_every_pair_at_1_is_a_primitive_partner():
    # No third point splits a distance of 1.
    assert DistanceMatrix(PATH3).masks[1] == [(4, 2), (0, 5), (1, 2)]


GADGET = reduction.reduce(SimpleGraph(4, 4, frozenset(helpers.QUAD_GRAPH_EDGES))).matrix


@pytest.mark.parametrize(
    "values, made",
    [
        (helpers.rows(GADGET), [GADGET]),
        (helpers.rows(parse_matrix((DATA / "rows" / "two_digit.mat").read_text())), []),
        (((0, 300), (300, 0)), []),
        (((0, 1, 256), (1, 0, 255), (256, 255, 0)), []),
    ],
    ids=["gadget", "two-digit", "wide", "255-256"],
)
def test_matrices_of_equal_values_are_equal_however_built(values, made):
    # bytes rows when every entry fits in a byte, int tuples otherwise,
    # whatever the rows were built from.
    raws = [
        RawMatrix(values),
        RawMatrix(tuple(map(list, values))),
        RawMatrix.from_rows(values),
        parse_matrix("".join(" ".join(map(str, row)) + "\n" for row in values)),
    ]
    builds = [check_structure(raw) for raw in raws] + made + [
        DistanceMatrix(values),
        DistanceMatrix([list(row) for row in values]),
    ]
    row_type = bytes if max(map(max, values)) < 256 else tuple
    for records in (raws, builds):
        for m in records:
            assert m == records[0] and hash(m) == hash(records[0])
            assert helpers.rows(m) == values
            assert {type(row) for row in m.entries} == {row_type}
    for d in builds:
        assert d.levels == builds[0].levels
        assert d.masks[2] == builds[0].masks[2]


def test_records_print_their_fields_by_name():
    assert repr(Bounds(2, 4, 5)) == "Bounds(q0=2, lower=4, upper=5)"
    assert repr(Colouring(2, (1, 2))) == "Colouring(k=2, colours=(1, 2))"
    assert repr(SimpleGraph(1, 1, frozenset())) == (
        "SimpleGraph(vertex_count=1, anchor_count=1, edges=frozenset())"
    )
    d = DistanceMatrix(((0,),))
    d.levels
    assert repr(d) == "DistanceMatrix(entries=((0,),))"


def test_checks_still_run_on_construction():
    with pytest.raises(ValueError, match="anchor_count out of range"):
        SimpleGraph(2, 3, frozenset())
    with pytest.raises(ValueError, match="out of range"):
        Colouring(2, (3,))
    with pytest.raises(ValueError, match="undeclared variable"):
        TwoSatInstance(1, ((2, 2),))
    with pytest.raises(ValueError, match="zero-weight edge"):
        WeightedTree(2, 2, frozenset({(1, 2, 0)}))


def test_construction_takes_exactly_the_fields():
    with pytest.raises(TypeError):
        Bounds(1, 2)
    with pytest.raises(TypeError):
        Bounds(1, 2, 3, 4)
