import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from combdmr.graph import SimpleGraph
from combdmr.matrix import RawMatrix
from combdmr.reduction import Colouring
from combdmr.textio import (
    ParseError,
    emit_colouring,
    emit_graph,
    emit_matrix,
    emit_weighted_tree,
    parse_colouring,
    parse_graph,
    parse_matrix,
    to_dot,
)
from combdmr.tree import WeightedTree


def test_parse_matrix_example():
    raw = parse_matrix("0 2 2\n2 0 2\n2 2 0\n")
    assert helpers.rows(raw) == tuple(tuple(r) for r in helpers.ALL_TWOS_3)


def test_parse_matrix_ignores_comments_and_blanks():
    raw = parse_matrix("# header\n\n0 1\n1 0\n\n")
    assert len(raw.entries) == 2


def test_parse_matrix_ragged_line_number():
    with pytest.raises(ParseError) as err:
        parse_matrix("0 1\n1 0 0\n")
    assert err.value.line == 2


def test_parse_matrix_rejects_garbage():
    with pytest.raises(ParseError):
        parse_matrix("0 x\n1 0\n")
    with pytest.raises(ParseError):
        parse_matrix("0 -1\n-1 0\n")
    with pytest.raises(ParseError):
        parse_matrix(f"0 {2**32}\n{2**32} 0\n")
    with pytest.raises(ParseError):
        parse_matrix("# nothing\n")


@pytest.mark.parametrize(
    ("text", "line", "reason"),
    [
        ("0 x\n1 0\n", 1, "not an integer: 'x'"),
        ("# header\n\n0 1\n1 y\n", 4, "not an integer: 'y'"),
        ("0 -1\n-1 0\n", 1, "negative value -1"),
        (f"0 {2**32}\n{2**32} 0\n", 1, "value 4294967296 exceeds 32-bit range"),
        ("0 1\n1 0 0\n", 2, "expected 2 entries, got 3"),
        ("0 1 x\n1 0\n", 1, "not an integer: 'x'"),
        ("", 1, "empty matrix"),
        ("# nothing\n\n   \n", 1, "empty matrix"),
        # The first bad token of a line names the error, whatever its kind.
        ("0 -1 x\n1 0 1\n1 1 0\n", 1, "negative value -1"),
        ("0 x -1\n1 0 1\n1 1 0\n", 1, "not an integer: 'x'"),
        ("0 4294967296 -5\n1 0 1\n1 1 0\n", 1, "value 4294967296 exceeds 32-bit range"),
        ("0 1 1\n1 0 1\n1 1 -0 z\n", 3, "not an integer: 'z'"),
    ],
)
def test_parse_matrix_error_lines_and_messages(text, line, reason):
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert (err.value.line, err.value.reason) == (line, reason)
    assert str(err.value) == f"line {line}: {reason}"


def test_parse_matrix_reads_entries_with_int():
    # Signs, leading zeros, digit-group underscores and non-ASCII decimal
    # digits are integers to Python's int, so they are entries.
    raw = parse_matrix("0 +3 007\n+3 0 1_0\n7 10 ٣\n")
    assert helpers.rows(raw) == ((0, 3, 7), (3, 0, 10), (7, 10, 3))


# Tokens int accepts or refuses at the edges of the entry range; the longest
# two are beyond int's default limit on decimal digits.
EDGE_TOKENS = (
    "0", "255", "256", "4294967295", "4294967296", "+3", "007", "1_0",
    "٣", "-0", "-1", "-5", "x", "1e3", "0x1", "_1", "1__0", "³",
    "1" * 4301, "9" * 4301,
)


@st.composite
def matrix_texts(draw):
    """Matrix files, mostly well formed: rows of small integers, some with
    one entry too many or too few, some edge tokens or arbitrary text, and
    blank and comment lines between the rows."""
    n = draw(st.integers(min_value=1, max_value=6))
    lines = []
    for _ in range(n):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(("", "# note", "  \t"))))
        width = max(1, n + draw(st.sampled_from((0, 0, 0, 0, -1, 1))))
        tokens = []
        for _ in range(width):
            kind = draw(st.integers(0, 15))
            if kind == 0:
                tokens.append(draw(st.sampled_from(EDGE_TOKENS)))
            elif kind == 1:
                tokens.append(draw(st.text(min_size=1, max_size=3)))
            else:
                tokens.append(str(draw(st.integers(0, 300))))
        lines.append(draw(st.sampled_from((" ", "  ", "\t"))).join(tokens))
    return "\n".join(lines) + "\n"


def assert_parses_like_the_per_token_loop(text):
    rows, error = helpers.parse_matrix_oracle(text)
    if error is None:
        assert helpers.rows(parse_matrix(text)) == rows
    else:
        with pytest.raises(ParseError) as err:
            parse_matrix(text)
        assert (err.value.line, err.value.reason) == error


@settings(max_examples=200, deadline=None)
@given(matrix_texts())
def test_parse_matrix_matches_the_per_token_loop(text):
    assert_parses_like_the_per_token_loop(text)


# What must leave a row of single digits to the int route: tokens int reads
# or refuses that are not one ASCII digit, and separators other than one space.
NOT_ONE_DIGIT = ("³", "٣", "+3", "-0", "07", "10", "x")
NOT_ONE_SPACE = ("\t", "  ", " \t ")


@st.composite
def digit_row_texts(draw):
    """Matrix files mostly of single digits between single spaces, the rows
    read as bytes; some rows hold one token or separator from above, one
    entry too many or too few, or padding, between blank and comment lines,
    with LF or CRLF line ends."""
    n = draw(st.integers(min_value=1, max_value=8))
    lines = []
    for _ in range(n):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(("", "# 0 1", "  \t"))))
        width = max(1, n + draw(st.sampled_from((0, 0, 0, 0, 0, 0, -1, 1))))
        tokens = [str(draw(st.integers(0, 9))) for _ in range(width)]
        seps = [" "] * (width - 1)
        if draw(st.integers(0, 3)) == 0:
            tokens[draw(st.integers(0, width - 1))] = draw(st.sampled_from(NOT_ONE_DIGIT))
        if seps and draw(st.integers(0, 3)) == 0:
            seps[draw(st.integers(0, width - 2))] = draw(st.sampled_from(NOT_ONE_SPACE))
        pad = draw(st.sampled_from(("", "", "", " ", "\t")))
        lines.append(pad + tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:])) + pad)
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end


@settings(max_examples=300, deadline=None)
@given(digit_row_texts())
def test_parse_matrix_reads_digit_rows_like_the_per_token_loop(text):
    assert_parses_like_the_per_token_loop(text)


def test_parse_matrix_matches_the_per_token_loop_on_each_edge_token():
    for token in EDGE_TOKENS:
        for text in (f"0 {token}\n{token} 0\n", f"{token}\n", f"0 1\n1 0 {token}\n"):
            assert_parses_like_the_per_token_loop(text)


# Entries at the edges of a digit (9/10) and of a byte (255/256).
EDGE_ENTRIES = (0, 9, 10, 255, 256, 4294967295)


@st.composite
def row_kind_texts(draw):
    """Well-formed matrix files whose lines are single digits between single
    spaces, or entries up to 255, or entries with at least one above 255,
    mixed in any order; some entries written as "-0"."""
    n = draw(st.integers(min_value=1, max_value=6))
    lines = []
    for _ in range(n):
        top = draw(st.sampled_from((9, 255, 2**32 - 1)))
        edges = [x for x in EDGE_ENTRIES if x <= top]
        row = [draw(st.one_of(st.integers(0, top), st.sampled_from(edges))) for _ in range(n)]
        if top > 255 and max(row) < 256:
            row[draw(st.integers(0, n - 1))] = 256
        tokens = ["-0" if x == 0 and draw(st.integers(0, 3)) == 0 else str(x) for x in row]
        sep = " " if top == 9 else draw(st.sampled_from((" ", "  ", "\t")))
        lines.append(sep.join(tokens))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(row_kind_texts())
@example("0 9\n10 0\n")
@example("0 255\n256 0\n")
@example("0 -0 1\n1 2 9\n12 255 256\n")
@example("-0 9 255\n0 10 256\n1 2 3\n")
def test_parse_and_emit_match_the_per_token_loop_for_both_row_kinds(text):
    # bytes rows when every entry fits in a byte, else int tuples, and emit
    # writes the oracle's values back, whichever the rows are.
    rows, error = helpers.parse_matrix_oracle(text)
    assert error is None
    m = parse_matrix(text)
    assert helpers.rows(m) == rows
    row_type = bytes if max(map(max, rows)) < 256 else tuple
    assert {type(row) for row in m.entries} == {row_type}
    assert m == RawMatrix(rows) and hash(m) == hash(RawMatrix(rows))
    text = emit_matrix(m)
    assert text == "".join(" ".join(map(str, row)) + "\n" for row in rows)
    assert parse_matrix(text) == m


def test_matrix_round_trip():
    d = helpers.dm(helpers.EIGHT_BY_EIGHT)
    assert helpers.rows(parse_matrix(emit_matrix(d))) == helpers.rows(d)


@pytest.mark.parametrize("top", [0, 9, 10, 255, 256])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_emit_matrix_joins_each_row_with_spaces(n, top):
    rng = random.Random(n * 1000 + top)
    rows = [[rng.randint(0, top) for _ in range(n)] for _ in range(n)]
    rows[-1][0] = top
    m = RawMatrix.from_rows(rows)
    assert emit_matrix(m) == "".join(" ".join(map(str, r)) + "\n" for r in rows)


def test_emit_graph_star():
    g = SimpleGraph.make(4, 3, [(1, 4), (2, 4), (3, 4)])
    assert emit_graph(g) == "graph 4 3\n1 4\n2 4\n3 4\n"


def test_parse_graph_header_errors():
    with pytest.raises(ParseError):
        parse_graph("4 3\n1 2\n")
    with pytest.raises(ParseError):
        parse_graph("graph 0 0\n")
    with pytest.raises(ParseError):
        parse_graph("graph 3 1\n1 1\n")
    with pytest.raises(ParseError):
        parse_graph("graph 3 1\n2 1\n")
    with pytest.raises(ParseError):
        parse_graph("graph 3 1\n1 2\n1 2\n")
    with pytest.raises(ParseError):
        parse_graph("")


def test_graph_round_trip():
    g = SimpleGraph.make(5, 2, [(1, 2), (2, 5), (3, 4)])
    assert parse_graph(emit_graph(g)) == g


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_graph_round_trip_random(rng):
    n = rng.randrange(1, 9)
    anchors = rng.randrange(1, n + 1)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < 0.4
    ]
    g = SimpleGraph.make(n, anchors, edges)
    assert parse_graph(emit_graph(g)) == g


def test_colouring_round_trip():
    c = Colouring(3, (1, 3, 2, 1))
    assert parse_colouring(emit_colouring(c)).colours == c.colours


def test_colouring_parse_errors():
    with pytest.raises(ParseError):
        parse_colouring("1 1\n3 2\n")  # vertex 2 missing
    with pytest.raises(ParseError):
        parse_colouring("1 1\n1 2\n")
    with pytest.raises(ParseError):
        parse_colouring("1\n")
    with pytest.raises(ParseError):
        parse_colouring("")


def test_weighted_tree_emit():
    t = WeightedTree(3, 2, frozenset({(1, 3, 2), (2, 3, 3)}))
    assert emit_weighted_tree(t) == "1 3 2\n2 3 3\n"


def test_dot_export_deterministic():
    g = SimpleGraph.make(3, 2, [(1, 3), (2, 3)])
    assert to_dot(g) == (
        "graph {\n"
        "  1;\n"
        "  2;\n"
        "  3 [style=dashed];\n"
        "  1 -- 3;\n"
        "  2 -- 3;\n"
        "}\n"
    )
