import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from combdmr import matrix
from combdmr.matrix import (
    DistanceMatrix,
    RawMatrix,
    ValidationError,
    ViolationKind,
    check_structure,
    check_triangles,
    validate,
)


def test_all_twos_validates():
    d = helpers.dm(helpers.ALL_TWOS_3)
    assert d.n == 3
    assert d.entries[0][1] == 2


def test_single_vertex_validates():
    d = helpers.dm([[0]])
    assert d.n == 1


def test_triangle_violation_witness():
    with pytest.raises(ValidationError) as err:
        helpers.dm([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert err.value.kind is ViolationKind.TRIANGLE_VIOLATION
    assert err.value.witness == (1, 2, 3)
    i, j, w = err.value.witness
    rows = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
    assert rows[i - 1][w - 1] + rows[w - 1][j - 1] < rows[i - 1][j - 1]


def test_diagonal_witness():
    with pytest.raises(ValidationError) as err:
        helpers.dm([[0, 1], [1, 3]])
    assert err.value.kind is ViolationKind.DIAGONAL_NONZERO
    assert err.value.witness == (2,)


def test_asymmetric_witness():
    with pytest.raises(ValidationError) as err:
        helpers.dm([[0, 1, 2], [1, 0, 1], [3, 1, 0]])
    assert err.value.kind is ViolationKind.ASYMMETRIC
    assert err.value.witness == (1, 3)


def test_off_diagonal_zero():
    with pytest.raises(ValidationError) as err:
        helpers.dm([[0, 0], [0, 0]])
    assert err.value.kind is ViolationKind.OFF_DIAGONAL_ZERO
    assert err.value.witness == (1, 2)


def test_ragged_rejected():
    with pytest.raises(ValidationError) as err:
        RawMatrix.from_rows([[0, 1], [1, 0, 0]])
    assert err.value.kind is ViolationKind.NOT_SQUARE


def test_raw_matrix_checks_each_row_for_length_then_entries():
    with pytest.raises(ValueError, match="^negative entry in row 1$"):
        RawMatrix.from_rows([[0, -1], [1]])
    with pytest.raises(ValidationError) as err:
        RawMatrix.from_rows([[0], [1, -1]])
    assert (err.value.kind, err.value.witness) == (ViolationKind.NOT_SQUARE, (1,))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RawMatrix(()), ValidationError, "not-square at ()"),
        (lambda: RawMatrix(((0, 1), (1,))), ValidationError, "not-square at (2,)"),
        (lambda: RawMatrix(((0, -1), (1, 0))), ValueError, "negative entry in row 1"),
        # Rows must be sequences: bytes(1) would read as one zero entry.
        (lambda: RawMatrix((1,)), TypeError, "'int' object is not iterable"),
        (lambda: DistanceMatrix((1,)), TypeError, "'int' object is not iterable"),
    ],
)
def test_raw_matrix_refusals_and_their_messages(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_check_structure_answers_for_rows_of_any_sequence_type():
    # The whole-row comparison must accept list rows too: once it fails,
    # the witness loops behind it raise or fall through to None.
    assert helpers.rows(validate(RawMatrix(([0, 1], [1, 0])))) == ((0, 1), (1, 0))
    with pytest.raises(ValidationError) as err:
        check_structure(RawMatrix(([0, 1], [2, 0])))
    assert str(err.value) == "asymmetric at (1, 2)"


@pytest.mark.parametrize("entry", [1.9, 2.0, "2", " 2"])
def test_from_rows_refuses_entries_that_are_not_ints(entry):
    with pytest.raises(TypeError) as err:
        helpers.dm([[0, entry], [entry, 0]])
    assert str(err.value) == f"'{type(entry).__name__}' object cannot be interpreted as an integer"


def test_from_rows_reads_ints_from_any_row_sequence():
    d = helpers.dm([[0, 2], (2, 0)])
    assert helpers.rows(d) == ((0, 2), (2, 0))
    assert helpers.rows(RawMatrix.from_rows([range(2), range(1, -1, -1)])) == ((0, 1), (1, 0))


@st.composite
def level_rows(draw, n):
    """A seeded row of n entries drawn from 1 to 300 values up to a bound of
    3 to 300.  A bound of 255 or 256 is also an entry, so the largest entry
    lies on both sides of what a byte holds, and rows with few distinct
    values and rows with many meet both."""
    top = draw(st.sampled_from((3, 20, 254, 255, 256, 300)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    count = draw(st.sampled_from((1, 2, 4, 8, 300)))
    pool = rng.sample(range(top + 1), min(top + 1, count))
    row = [rng.choice(pool) for _ in range(n)]
    if top in (255, 256):
        row[rng.randrange(n)] = top
    return row


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=300).flatmap(level_rows))
def test_row_levels_match_the_entry_loop(row):
    (at,) = DistanceMatrix((tuple(row),)).levels
    assert (at,) == (helpers.level_masks_oracle(row),)
    assert tuple(at) == tuple(sorted(at))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(level_rows(n), min_size=n, max_size=n)))
def test_levels_of_a_matrix_mixing_small_and_large_rows_match_the_entry_loop(rows):
    d = DistanceMatrix(tuple(map(tuple, rows)))
    assert d.levels == tuple(map(helpers.level_masks_oracle, rows))
    for at in d.levels:
        assert tuple(at) == tuple(sorted(at))


def test_validate_idempotent():
    d = helpers.dm(helpers.EIGHT_BY_EIGHT)
    again = validate(RawMatrix(d.entries))
    assert helpers.rows(again) == helpers.rows(d)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_validate_agrees_with_brute_force(n, rng):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                rows[i][j] = rng.randrange(0, 5)
    if rng.random() < 0.5:
        # Symmetrise half the time so valid matrices actually appear.
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
    ok = helpers.brute_is_distance_matrix(rows)
    try:
        validate(RawMatrix.from_rows(rows))
        assert ok
    except ValidationError as err:
        assert not ok
        # The witness must exhibit the claimed violation.
        kind, witness = err.kind, err.witness
        if kind is ViolationKind.DIAGONAL_NONZERO:
            (i,) = witness
            assert rows[i - 1][i - 1] != 0
        elif kind is ViolationKind.ASYMMETRIC:
            i, j = witness
            assert rows[i - 1][j - 1] != rows[j - 1][i - 1]
        elif kind is ViolationKind.OFF_DIAGONAL_ZERO:
            i, j = witness
            assert i != j and rows[i - 1][j - 1] == 0
        elif kind is ViolationKind.TRIANGLE_VIOLATION:
            i, j, t = witness
            assert rows[i - 1][t - 1] + rows[t - 1][j - 1] < rows[i - 1][j - 1]


def test_random_bfs_metrics_always_validate():
    for d, _ in helpers.metric_stream(40, seed0=7000):
        assert helpers.brute_is_distance_matrix([list(r) for r in d.entries])


@settings(max_examples=250, deadline=None)
@given(helpers.metric_cases())
def test_validate_matches_the_row_major_scan(rows):
    want = helpers.first_violation_oracle(rows)
    try:
        validate(RawMatrix.from_rows(rows))
        got = None
    except ValidationError as err:
        got = (err.kind, err.witness)
    assert got == want


@settings(max_examples=250, deadline=None)
@given(helpers.metric_cases())
def test_structure_check_matches_the_row_major_scan_but_the_triangles(rows):
    # Whole-row comparisons pass a well-formed matrix; a malformed one gets
    # the witness of the ordered loops.
    want = helpers.first_violation_oracle(rows)
    if want is not None and want[0] is ViolationKind.TRIANGLE_VIOLATION:
        want = None
    try:
        d = check_structure(RawMatrix.from_rows(rows))
        got = None
    except ValidationError as err:
        got = (err.kind, err.witness)
    assert got == want
    if got is None:
        assert helpers.rows(d) == tuple(map(tuple, rows))


def test_structure_check_reports_the_first_kind_in_scan_order():
    # Diagonal before symmetry before positivity, whatever the positions.
    for rows, want in (
        ([[0, 1, 0], [2, 0, 1], [0, 1, 7]], (ViolationKind.DIAGONAL_NONZERO, (3,))),
        ([[0, 0, 1], [0, 0, 1], [2, 1, 0]], (ViolationKind.ASYMMETRIC, (1, 3))),
        ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], (ViolationKind.OFF_DIAGONAL_ZERO, (2, 3))),
    ):
        with pytest.raises(ValidationError) as err:
            check_structure(RawMatrix.from_rows(rows))
        assert (err.value.kind, err.value.witness) == want


# Largest entries around the edges of the packed scan's lanes (a lane of b
# bits holds entries below 2**(b - 2)), and just past the largest a lane of
# b bits could hold (2**(b - 2) + 1), so a lane one bit too narrow carries;
# those of 2**62 and above reach the scan only through RawMatrix.from_rows.
LANE_TOPS = (
    3, 10, 61, 62, 63, 64, 66, 127, 16381, 16382, 16383, 16384, 16386, 2**30 - 1, 2**30,
    2**30 + 1, 2**30 + 2, 2**32 - 1, 2**62 - 1, 2**62, 2**62 + 1, 2**64, 2**100,
)


@st.composite
def triangle_cases(draw, max_n=14):
    """Rows that pass the structural checks, around a largest entry ``top``:
    uniform in 1..top; drawn from {1, 2, top - 2, top - 1, top}, so most
    detours run through an index at max(row) - 1 or max(row), which the
    scan skips; or the shortest-path closure of weights in lo..top with one
    entry raised (when lo is about top / 2 every weight is its own closure)."""
    n = draw(st.integers(1, max_n))
    top = draw(st.sampled_from(LANE_TOPS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    family = draw(st.sampled_from(("uniform", "pool", "closure")))
    lo = draw(st.sampled_from((1, (top + 1) // 2)))
    pool = (1, 2, top - 2, top - 1, top)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if family == "pool":
                rows[i][j] = rows[j][i] = rng.choice(pool)
            else:
                rows[i][j] = rows[j][i] = rng.randint(lo, top)
    if family == "closure" and n >= 2:
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] + draw(st.sampled_from((1, 2, top)))
    return rows


@settings(max_examples=400, deadline=None)
@given(triangle_cases())
@example([[0, 64, 63], [64, 0, 1], [63, 1, 0]])
@example([[0, 64, 62], [64, 0, 1], [62, 1, 0]])
@example([[0, 2**62, 2**62 - 2], [2**62, 0, 1], [2**62 - 2, 1, 0]])
def test_packed_scan_names_the_witness_of_the_level_mask_scan(rows):
    d = check_structure(RawMatrix.from_rows(rows))
    assert matrix._first_triangle_violation(d) == helpers.triangle_oracle(d)


# Q0 from the skeleton-closure oracle tries every q up to the largest entry.
ORACLE_Q0_TOP = 64


@settings(max_examples=400, deadline=None)
@given(st.one_of(triangle_cases(), helpers.metric_cases(max_n=20), helpers.non_metric_cases()))
# Even perimeter and a full four-point pass, yet 4 > 1 + 1.
@example([[0, 4, 1], [4, 0, 1], [1, 1, 0]])
@example([[0, 64, 62], [64, 0, 1], [62, 1, 0]])
def test_primitive_partners_prove_the_triangle_inequality_exactly_on_metrics(rows):
    # The check through each row's primitive partners passes iff the full
    # scan finds no violation; rows that fail the structural check are
    # outside its contract.
    d = helpers.structural_matrix(rows)
    if d is None:
        return
    q0, partners = matrix._primitive_pairs(d)
    assert partners == helpers.primitive_partners_oracle(rows)
    metric = matrix._first_triangle_violation(d) is None
    assert (matrix._first_triangle_violation(d, partners) is None) is metric
    if metric and max(map(max, rows)) <= ORACLE_Q0_TOP:
        assert q0 == helpers.q_zero_oracle(rows)


def _triangle_outcome(d, *partners):
    try:
        return check_triangles(d, *partners)
    except ValidationError as err:
        return err.kind, err.witness


@settings(max_examples=300, deadline=None)
@given(st.one_of(helpers.metric_cases(), helpers.non_metric_cases()))
@example([[0, 4, 1], [4, 0, 1], [1, 1, 0]])
@example([[0, 2**62, 2**62 - 2], [2**62, 0, 1], [2**62 - 2, 1, 0]])
def test_the_partner_pass_returns_the_metric_or_raises_the_scans_witness(rows):
    # Given the primitive partners, check_triangles proves a metric through
    # them alone, and names a non-metric's first witness like the full scan.
    d = helpers.structural_matrix(rows)
    if d is None:
        return
    witness = helpers.triangle_oracle(d)
    outcome = _triangle_outcome(d, matrix._primitive_pairs(d)[1])
    assert outcome == _triangle_outcome(d)
    if witness is None:
        assert outcome is d
    else:
        assert outcome == (ViolationKind.TRIANGLE_VIOLATION, witness)


def test_path_metric_on_400_points_validates_and_names_its_one_shortcut():
    # Every row of a path metric has n distinct values: the level-mask scan
    # took seconds here, the packed rows take a fraction of one.
    rows = [[abs(i - j) for j in range(400)] for i in range(400)]
    assert validate(RawMatrix.from_rows(rows)).n == 400
    rows[0][399] = rows[399][0] = 400
    with pytest.raises(ValidationError) as err:
        validate(RawMatrix.from_rows(rows))
    assert str(err.value) == "triangle-violation at (1, 400, 2)"
