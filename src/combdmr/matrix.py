"""Validated integer distance matrices and the analysis the deciders share.

A distance matrix is a square symmetric matrix of non-negative integers with
zero diagonal, strictly positive off-diagonal entries, and the triangle
inequality.  These are exactly the matrices that arise as pairwise
shortest-path hop counts among a set of anchor vertices in some unweighted
graph.  A matrix holds its rows as ``bytes`` when every entry fits in a
byte, and as int tuples otherwise.  Validation has two parts:
:func:`check_structure` covers everything but the triangle inequality in
O(n^2), and :func:`check_triangles` scans for a violating triple in O(n^2)
additions of rows packed into ints, lane by lane, whatever the size of the
entries.  :func:`validate` runs both.

The per-matrix facts live here too: a :class:`DistanceMatrix` builds its
``levels`` and the deciders' row ``masks`` once, on first use, and
:func:`_primitive_pairs` lists the pairs no third index splits.  Through
them :func:`check_triangles` proves a metric, and scans only to name a
non-metric's witness.  A graph whose anchor distances equal the matrix
proves the inequality too, so a verified realisation needs no scan;
``solve`` builds such a graph after a NO (``solvers._proves_metric``).
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import attrgetter, index

# Hop counts in any realisation are bounded by the vertex count, so entries
# beyond 32 bits are rejected at the parsing layer.
MAX_ENTRY = 2**32 - 1


class ViolationKind(enum.Enum):
    """Every condition a matrix can violate, by the name the CLI prints.

    :class:`ValidationError` carries the axioms only, never the tree
    conditions ``PARITY_TRIPLE`` and ``FOUR_POINT`` of ``tree.check_zareckii``.
    """

    NOT_SQUARE = "not-square"
    DIAGONAL_NONZERO = "diagonal-nonzero"
    OFF_DIAGONAL_ZERO = "off-diagonal-zero"
    ASYMMETRIC = "asymmetric"
    TRIANGLE_VIOLATION = "triangle-violation"
    PARITY_TRIPLE = "parity-triple"
    FOUR_POINT = "four-point"


class ValidationError(ValueError):
    """One concrete axiom violation, with 1-based indices exhibiting it."""

    def __init__(self, kind: ViolationKind, witness: tuple[int, ...]):
        self.kind = kind
        self.witness = witness
        super().__init__(f"{kind.value} at {witness}")


class _Value:
    """Base of the library's immutable records; a subclass's fields are its
    own annotations, in order.  A record is built from its fields
    positionally, then runs its ``__post_init__`` check.  It refuses
    assignment, equals only a record of its own class with equal fields,
    hashes by its fields and prints as ``Name(field=value, ...)``.  A
    ``cached_property`` may store in the instance ``__dict__`` beside the
    fields, and never counts towards ``==`` or ``hash``.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes fields {self._fields}, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Rows(_Value):
    """Base of the two matrix records.  Its rows are ``bytes`` when
    ``bytes()`` takes every row, so when every entry is an int from 0 to
    255, and int tuples otherwise.  Equal values thus make equal, equally
    hashed matrices whatever the rows were built from, and a matrix prints
    its rows as int tuples."""

    entries: tuple[bytes, ...] | tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        e = self.entries
        try:
            # bytes(k) of an int k is k zero bytes, where tuple(k) refuses it.
            if any(isinstance(row, int) for row in e):
                raise TypeError
            rows = tuple(map(bytes, e))
        except (TypeError, ValueError):
            rows = tuple(map(tuple, e))
        self.__dict__["entries"] = rows

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(entries={tuple(map(tuple, self.entries))!r})"


class RawMatrix(_Rows):
    """A square matrix of non-negative integers, not yet validated."""

    entries: tuple[bytes, ...] | tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        e = self.entries
        n = len(e)
        if n == 0:
            raise ValidationError(ViolationKind.NOT_SQUARE, ())
        for idx, row in enumerate(e, 1):
            if len(row) != n:
                raise ValidationError(ViolationKind.NOT_SQUARE, (idx,))
            # A bytes row holds no negative entry.
            if type(row) is tuple and min(row) < 0:
                raise ValueError(f"negative entry in row {idx}")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "RawMatrix":
        """Read entries with ``operator.index``: floats and strings raise TypeError."""
        return RawMatrix(tuple(tuple(map(index, row)) for row in rows))


def _bits(m: int):
    """Indices of the set bits of m, ascending."""
    while m:
        bit = m & -m
        yield bit.bit_length() - 1
        m ^= bit


# The 256 bytes from 255 - a translate byte a to b"1" and every other byte
# to b"0"; one string holds that table for every a.
_ONE_AMID_ZEROS = b"0" * 255 + b"1" + b"0" * 255


def _row_levels(row: Sequence[int]) -> dict[int, int]:
    """Each distinct entry a of row i, ascending, to the mask of the w with
    D_iw = a (bit w for index w + 1).  A row of byte-sized entries with few
    distinct values gets each mask in C: the row, last entry first, as
    bytes, translated to ``b"1"`` where the byte is a and ``b"0"``
    elsewhere, and read as a binary int.  Other rows are read entry by
    entry."""
    values = sorted(set(row))
    n = len(row)
    # One pass per distinct value costs about (n + 256) / 56 steps of the
    # entry loop (fitted to timings at n = 20-1000, Python 3.11 on a 2-vCPU
    # Xeon), so the passes win below about 9, 16, 25 and 45 values at
    # n = 50, 100, 200 and 1000.  With more, as in a path metric's rows,
    # they would take up to 5x as long as the loop.
    if values[-1] < 256 and len(values) * (n + 256) < 56 * n:
        # bytes() of a bytes row is the row itself, not a copy.
        digits = bytes(row[::-1])
        return {a: int(digits.translate(_ONE_AMID_ZEROS[255 - a : 511 - a]), 2) for a in values}
    at = dict.fromkeys(values, 0)
    bit = 1
    for x in row:
        at[x] |= bit
        bit <<= 1
    return at


class DistanceMatrix(_Rows):
    """A matrix that passed :func:`check_structure`, or one built where its
    axioms hold by construction (the gadget of ``reduction.reduce``, the
    BFS metrics of ``generate``).

    The triangle inequality holds once :func:`check_triangles` passed on it
    (as in :func:`validate`) or a graph was verified to realise it; the
    deciders need no more than the structure to run.
    """

    entries: tuple[bytes, ...] | tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def levels(self) -> tuple[dict[int, int], ...]:
        """Each row's distance levels, built once per matrix (0-based rows):
        entry value to the mask of its columns, keys ascending."""
        return tuple(_row_levels(row) for row in self.entries)

    @cached_property
    def masks(self) -> _RowMasks:
        """``_row_masks(self.levels, a)`` by distance a, each built on first use."""
        return _RowMasks(self.levels)


def _primitive_pairs(d: DistanceMatrix) -> tuple[int, list[list[int]]]:
    """q0, the largest primitive entry and at least 1, and each row's
    primitive partners, ascending, 0-based.

    A pair is primitive when no third index w has D_iw + D_wj = D_ij.  Each
    pair i < j is tested once: row i's levels a below D_ij, ascending,
    against row j's level D_ij - a, and the first shared column ends it.
    ``q_zero`` and ``bounds`` need every distance at once, which this pass
    serves; a ``q_zero`` over the per-distance :func:`_row_masks` measured
    1.5 to 5.6 times slower.
    """
    levels = d.levels
    n = d.n
    partners: list[list[int]] = [[] for _ in range(n)]
    best = 1
    for i, (row, at) in enumerate(zip(d.entries, levels)):
        # Level 0 of row i holds i alone.
        steps = list(at.items())[1:]
        mine = partners[i]
        for j, dij, at_j in zip(range(i + 1, n), row[i + 1 :], levels[i + 1 :]):
            for a, mask in steps:
                if a >= dij:
                    mine.append(j)
                    partners[j].append(i)
                    if dij > best:
                        best = dij
                    break
                if mask & at_j.get(dij - a, 0):
                    break
    return best, partners


def _row_masks(levels: Sequence[dict[int, int]], a: int) -> list[tuple[int, int]]:
    """Per row i: the j with D_ij > a, and i's primitive partners at a.

    Bit j - 1 stands for index j.  The pairs at a that are not primitive
    are those joined through a w with D_iw = b and D_wj = a - b for some b
    from 1 to a - 1, so every pair at 1 is primitive.  Row i rules out
    b = 1 at once, by the level a - 1 masks of its neighbours; each partner
    j left then tests its own level a - b against i's level b for the other
    b, which for a = 3 is one test of j's neighbours against i's level 2.
    The ladder needs masks at 2 and 3 only, where :func:`_primitive_pairs`
    would test every pair at every distance.
    """
    full = (1 << len(levels)) - 1
    rows = []
    for at in levels:
        near = shortcut = 0
        for b in range(a):
            near |= at.get(b, 0)
        for w in _bits(at.get(1, 0) if a > 1 else 0):
            shortcut |= levels[w].get(a - 1, 0)
        mine = at.get(a, 0)
        primitive = mine & ~shortcut
        for b in range(2, a):
            mask = at.get(b, 0)
            for j in _bits(primitive):
                if mask & levels[j].get(a - b, 0):
                    primitive ^= 1 << j
        rows.append((full & ~(near | mine), primitive))
    return rows


class _RowMasks(dict):
    """``_row_masks(levels, a)`` by distance a, each built on first use."""

    def __init__(self, levels: Sequence[dict[int, int]]) -> None:
        self.levels = levels  # not the matrix: that cycle cost gadget solves 5 % in GC

    def __missing__(self, a: int) -> list[tuple[int, int]]:
        self[a] = rows = _row_masks(self.levels, a)
        return rows


# struct codes of little-endian lanes of 1, 2, 4 and 8 bytes.
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BELOW_64 = bytes(range(64))


def _packed_rows(d: DistanceMatrix) -> tuple[list[int], int, int, int]:
    """Each row of d as one int, entry j in lane j, with ``ones`` (a 1 in
    every lane), ``half`` (the top bit of every lane) and the lane width in
    bits.  A lane of b bits holds entries below 2**(b - 2), and is 1, 2, 4
    or 8 bytes wide when the largest entry allows (wider entries get as many
    bytes as they need).  One-byte lanes are bytes rows themselves, when
    deleting every byte below 64 from them leaves nothing."""
    e = d.entries
    n = d.n
    if type(e[0]) is bytes and not b"".join(e).translate(None, _BELOW_64):
        raws, size = e, 1
    else:
        bits = max(map(max, e)).bit_length() + 2
        size = next((b for b in (2, 4, 8) if bits <= 8 * b), (bits + 7) // 8)
        if size in _LANE_CODES:
            fmt = f"<{n}{_LANE_CODES[size]}"
            raws = (struct.pack(fmt, *row) for row in e)
        else:
            raws = (b"".join(x.to_bytes(size, "little") for x in row) for row in e)
    packed = [int.from_bytes(raw, "little") for raw in raws]
    width = 8 * size
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")
    return packed, ones, ones << width - 1, width


def _first_triangle_violation(
    d: DistanceMatrix, through: Sequence[Sequence[int]] | None = None
) -> tuple[int, int, int] | None:
    """First (i, j, w), 1-based in row-major order, with D_iw + D_wj < D_ij;
    with ``through``, of the (i, j) that a w in ``through[i]`` shortcuts.

    Each row is packed into one int by :func:`_packed_rows`.  With ``half``
    the top bit of a lane and ``ones`` a 1 in every lane, lane j of
    ``packed[w] + (half + D_iw) * ones - packed[i]`` is
    half + D_iw + D_wj - D_ij.  That lies in [0, 2 * half), so no lane
    borrows from its neighbour, and it loses its top bit exactly when w
    shortcuts i to j (many small lanes in one word, after Lamport, CACM
    1975).  ANDing these sums over w leaves the top bit of every lane j
    that no w shortcuts.  An index with D_iw = 0 or D_iw >= max(row i) - 1
    shortcuts no pair of row i, and the full scan skips it.

    The matrix is symmetric here, so only lanes j > i are read: the
    shortcut set of a pair is the same in both orders, and no pair p < q
    with q < i can violate when (i, j) is the first violating pair i < j.
    One pass over row i then names the smallest w.  A matrix costs O(n^2)
    additions of n-lane ints, whatever its entries.

    ``through`` as the primitive partners (0-based) of
    :func:`_primitive_pairs` finds a violation exactly when d is not a
    metric.  Let d_P be the shortest-path distance over the primitive pairs
    P weighted by D.  Every other pair splits through some w into two pairs
    with smaller positive entries, so D >= d_P by induction on the entry.
    For i < j, a shortest P-path from i with the fewest hops first goes to a
    partner w of i, and its rest is such a path from w to j.  So if no lane
    j > i breaks, D_ij <= D_iw + D_wj <= d_P(i, j) by induction on the
    hops, and D = d_P is a metric.
    """
    e = d.entries
    packed, ones, half, width = _packed_rows(d)
    for i, row in enumerate(e):
        rest = half - packed[i]
        # A partner pass adds too few w to repay the max; half exceeds every entry.
        limit = max(row) - 1 if through is None else half
        # (half + a) * ones - packed[i], once per value a of row i.
        offsets: dict[int, int] = {}
        kept = half
        for w in range(len(row)) if through is None else through[i]:
            a = row[w]
            if 0 < a < limit:
                t = offsets.get(a)
                if t is None:
                    t = offsets[a] = a * ones + rest
                kept &= packed[w] + t
        broken = kept != half and (half ^ kept) >> (i + 1) * width
        if broken:
            j = i + 1 + ((broken & -broken).bit_length() - 1) // width
            dij = row[j]
            w = next(w for w, a in enumerate(row) if a + e[w][j] < dij)
            return i + 1, j + 1, w + 1
    return None


def check_structure(m: RawMatrix) -> DistanceMatrix:
    """Check every axiom but the triangle inequality; return the matrix.

    Raises :class:`ValidationError` carrying the first violation found, in a
    fixed scan order: diagonal, then symmetry, then off-diagonal positivity,
    each in row-major index order.  A matrix that passes is recognised by
    whole-row comparisons, bytes rows against the columns sliced out of
    their concatenation; the ordered loops run only to name a witness.
    """
    e = m.entries
    n = len(e)
    if type(e[0]) is bytes:
        flat = b"".join(e)
        symmetric = all(flat[j::n] == row for j, row in enumerate(e))
    else:
        symmetric = tuple(zip(*e)) == e
    if symmetric and all(row[i] == 0 and row.count(0) == 1 for i, row in enumerate(e)):
        return DistanceMatrix(e)
    # The matrix failed the check above, so one of these loops raises.
    for i in range(n):
        if e[i][i] != 0:
            raise ValidationError(ViolationKind.DIAGONAL_NONZERO, (i + 1,))
    for i in range(n):
        for j in range(i + 1, n):
            if e[i][j] != e[j][i]:
                raise ValidationError(ViolationKind.ASYMMETRIC, (i + 1, j + 1))
    for i in range(n):
        for j in range(n):
            if i != j and e[i][j] == 0:
                raise ValidationError(ViolationKind.OFF_DIAGONAL_ZERO, (i + 1, j + 1))


def check_triangles(
    d: DistanceMatrix, partners: Sequence[Sequence[int]] | None = None
) -> DistanceMatrix:
    """Raise :class:`ValidationError` at the first triangle violation of d,
    in row-major (i, j, w) order; return d when there is none.

    Given d's primitive partners from :func:`_primitive_pairs`, one pass
    through them decides, and the full scan runs only to name the witness.
    """
    if partners is None or _first_triangle_violation(d, partners):
        witness = _first_triangle_violation(d)
        if witness is not None:
            raise ValidationError(ViolationKind.TRIANGLE_VIOLATION, witness)
    return d


def validate(m: RawMatrix) -> DistanceMatrix:
    """Check the distance-matrix axioms and return the validated matrix.

    Raises :class:`ValidationError` carrying the first violation found, in a
    fixed scan order: diagonal, then symmetry, then off-diagonal positivity,
    then the triangle inequality, each in row-major index order.
    """
    return check_triangles(check_structure(m))
