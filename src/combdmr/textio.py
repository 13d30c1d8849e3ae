"""Plain-text formats for matrices, graphs and colourings, plus DOT export.

Matrix files are n lines of n whitespace-separated integers; the dimension
is inferred from the line count.  A line of single ASCII digits between
single spaces is read as bytes: its even characters, translated from
``b"0"``-``b"9"`` to 0-9.  Any other line is read at C speed, as
``bytes(map(int, ...))``, or else as ``tuple(map(int, ...))``, which passes
when it holds no ``-`` and its ``max`` fits in 32 bits; only a line that
fails both is read again token by token, which accepts ``-0`` and otherwise
names the line's first bad token.  So a matrix holds ``bytes`` rows when
its entries fit in a byte (see ``matrix.RawMatrix``).  One whose entries
are all below 10 is written the same way round, as one byte string of
digits and separators.

Graph files start with a header line
``graph <vertex_count> <anchor_count>`` followed by one ``u v`` edge per
line with u < v; the emitters sort the edges lexicographically, and the
parser takes them in any order.  Blank lines and lines starting with ``#``
are ignored everywhere.  All emitters produce byte-identical output for
equal inputs, and ``parse(emit(x)) == x``.
Only ``matrix`` and ``graph`` are imported up front; ``Colouring`` comes
from ``reduction`` when a colouring is parsed.
"""

from __future__ import annotations

from .matrix import MAX_ENTRY, DistanceMatrix, RawMatrix
from .graph import SimpleGraph


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if s and not s.startswith("#"):
            out.append((lineno, s))
    return out


def _int_fields(lineno: int, s: str) -> list[int]:
    vals = []
    for tok in s.split():
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(lineno, f"not an integer: {tok!r}") from None
        if v < 0:
            raise ParseError(lineno, f"negative value {v}")
        if v > MAX_ENTRY:
            raise ParseError(lineno, f"value {v} exceeds 32-bit range")
        vals.append(v)
    return vals


# Bytes b"0"-b"9" to the values 0-9, and back; every other value to b"-".
DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
DIGIT_CHARS = b"0123456789" + b"-" * 246


def _matrix_row(lineno: int, s: str) -> bytes | tuple[int, ...]:
    # isascii leaves "³" (which int refuses) and "٣" (which it reads) to int.
    digits = s[::2]
    if digits.isascii() and digits.isdigit() and s[1::2] == " " * (len(s) // 2):
        return digits.encode().translate(DIGIT_VALUES)
    # bytes() refuses a negative entry, and int reads "-0" as 0 either way.
    try:
        return bytes(map(int, s.split()))
    except ValueError:
        pass
    try:
        row = tuple(map(int, s.split()))
    except ValueError:
        pass
    else:
        # int reads a number as negative only after an ASCII "-".
        if "-" not in s and max(row) <= MAX_ENTRY:
            return row
    # The same int calls, one at a time, raise at the first bad token, or
    # read the row when its only "-" signs are on zeros.
    return tuple(_int_fields(lineno, s))


def parse_matrix(text: str) -> RawMatrix:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty matrix")
    n = len(lines)
    rows = []
    for lineno, s in lines:
        row = _matrix_row(lineno, s)
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, got {len(row)}")
        rows.append(row)
    return RawMatrix(tuple(rows))


def emit_matrix(m: RawMatrix | DistanceMatrix) -> str:
    rows = m.entries
    digits = b"".join(rows).translate(DIGIT_CHARS) if type(rows[0]) is bytes else b""
    if digits.isdigit():
        # Every entry is below 10: digits at the even bytes, a space or the
        # line's newline after each.
        n = len(rows)
        out = bytearray(2 * n * n)
        out[::2] = digits
        out[1::2] = (b" " * (n - 1) + b"\n") * n
        return out.decode()
    return "".join(" ".join([str(x) for x in row]) + "\n" for row in rows)


def parse_graph(text: str) -> SimpleGraph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty graph")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "graph":
        raise ParseError(lineno, "expected header 'graph <vertices> <anchors>'")
    vc, ac = _int_fields(lineno, " ".join(parts[1:]))
    if vc < 1 or not 1 <= ac <= vc:
        raise ParseError(lineno, f"bad graph header counts {vc} {ac}")
    edges = set()
    for lineno, s in lines[1:]:
        vals = _int_fields(lineno, s)
        if len(vals) != 2:
            raise ParseError(lineno, "expected an edge 'u v'")
        u, v = vals
        if not 1 <= u < v <= vc:
            raise ParseError(lineno, f"bad edge ({u}, {v})")
        if (u, v) in edges:
            raise ParseError(lineno, f"duplicate edge ({u}, {v})")
        edges.add((u, v))
    return SimpleGraph(vc, ac, frozenset(edges))


def emit_graph(g: SimpleGraph) -> str:
    lines = [f"graph {g.vertex_count} {g.anchor_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_colouring(text: str) -> Colouring:
    """One ``vertex colour`` pair per line; k is the largest colour used."""
    from .reduction import Colouring
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty colouring")
    assigned: dict[int, int] = {}
    for lineno, s in lines:
        vals = _int_fields(lineno, s)
        if len(vals) != 2:
            raise ParseError(lineno, "expected 'vertex colour'")
        vtx, col = vals
        if vtx < 1 or col < 1:
            raise ParseError(lineno, "vertex and colour are 1-based")
        if vtx in assigned:
            raise ParseError(lineno, f"vertex {vtx} coloured twice")
        assigned[vtx] = col
    n = max(assigned)
    for v in range(1, n + 1):
        if v not in assigned:
            raise ParseError(lines[-1][0], f"vertex {v} has no colour")
    return Colouring(max(assigned.values()), tuple(assigned[v] for v in range(1, n + 1)))


def emit_colouring(c: Colouring) -> str:
    return "".join(f"{v} {col}\n" for v, col in enumerate(c.colours, 1))


def emit_weighted_tree(t: WeightedTree) -> str:
    """Debug dump: one ``u v doubled_weight`` line per edge."""
    return "".join(f"{u} {v} {w}\n" for u, v, w in sorted(t.edges))


def to_dot(g: SimpleGraph) -> str:
    """DOT export; auxiliary vertices are drawn dashed."""
    lines = ["graph {"]
    for v in range(1, g.vertex_count + 1):
        style = "" if v <= g.anchor_count else " [style=dashed]"
        lines.append(f"  {v}{style};")
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
