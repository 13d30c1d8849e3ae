"""Validated integer distance matrices.

A distance matrix is a square symmetric matrix of non-negative integers with
zero diagonal, strictly positive off-diagonal entries, and the triangle
inequality.  These are exactly the matrices that arise as pairwise
shortest-path hop counts among a set of anchor vertices in some unweighted
graph.  Validation has two parts: :func:`check_structure` covers everything
but the triangle inequality in O(n^2), and :func:`check_triangles` scans for
a violating triple.  :func:`validate` runs both.  A graph whose anchor
distances equal the matrix proves the triangle inequality on its own, so a
caller holding a verified realisation may skip the scan.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import index, or_
from typing import Iterable, NamedTuple, Sequence

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


@dataclass(frozen=True)
class RawMatrix:
    """A square matrix of non-negative integers, not yet validated."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValidationError(ViolationKind.NOT_SQUARE, ())
        for idx, row in enumerate(self.entries, 1):
            if len(row) != n:
                raise ValidationError(ViolationKind.NOT_SQUARE, (idx,))
            if min(row) < 0:
                raise ValueError(f"negative entry in row {idx}")

    @property
    def n(self) -> int:
        return len(self.entries)

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


class LevelMasks(NamedTuple):
    """Row i's distance levels as bitmasks; bit w stands for index w + 1.

    ``values`` are the distinct entries of the row, ascending (so
    ``values[0]`` is 0); ``at[a]`` holds the w with D_iw = a for each of
    them, and ``within[k]`` the w with D_iw <= values[k].

    A row whose entries all fit in a byte and that has few distinct
    values gets each ``at[a]`` in C: the row, last entry first, as bytes,
    translated to ``b"1"`` where the byte is a and ``b"0"`` elsewhere, and
    read as a binary int.  Other rows are read entry by entry.
    """

    values: tuple[int, ...]
    at: dict[int, int]
    within: tuple[int, ...]


# The 256 bytes from 255 - a translate byte a to b"1" and every other byte
# to b"0"; one string holds that table for every a.
_ONE_AMID_ZEROS = b"0" * 255 + b"1" + b"0" * 255


def _row_levels(row: Sequence[int]) -> LevelMasks:
    values = tuple(sorted(set(row)))
    n = len(row)
    # One pass per distinct value costs about (n + 256) / 56 steps of the
    # entry loop (fitted to timings at n = 20-1000, Python 3.11 on a 2-vCPU
    # Xeon), so the passes win below about 9, 16, 25 and 45 values at
    # n = 50, 100, 200 and 1000.  With more, as in a path metric's rows,
    # they would take up to 5x as long as the loop.
    at: dict[int, int] = {}
    if values[-1] < 256 and len(values) * (n + 256) < 56 * n:
        digits = bytes(reversed(row))
        for a in values:
            at[a] = int(digits.translate(_ONE_AMID_ZEROS[255 - a : 511 - a]), 2)
    else:
        bit = 1
        for x in row:
            at[x] = at.get(x, 0) | bit
            bit <<= 1
    return LevelMasks(values, at, tuple(accumulate((at[a] for a in values), or_)))


@dataclass(frozen=True)
class DistanceMatrix:
    """A matrix that passed :func:`check_structure`, or one built where its
    axioms hold by construction (the gadget of ``reduction.reduce``, the
    BFS metrics of ``generate``).

    The triangle inequality holds once :func:`check_triangles` passed on it
    (as in :func:`validate`) or a graph was verified to realise it; the
    deciders need no more than the structure to run.
    """

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def dist(self, i: int, j: int) -> int:
        """Entry at row i, column j, 1-based."""
        return self.entries[i - 1][j - 1]

    @cached_property
    def levels(self) -> tuple[LevelMasks, ...]:
        """Each row's distance levels, built once per matrix (0-based rows)."""
        return tuple(_row_levels(row) for row in self.entries)

    def is_primitive(self, i: int, j: int) -> bool:
        """True when no third index w, 1-based, has D_iw + D_wj = D_ij.

        Primitive pairs are the ones no realisation can route through
        another anchor, so every realisation joins them by a path whose
        interior is all auxiliary.
        """
        values, at_i, _ = self.levels[i - 1]
        at_j = self.levels[j - 1].at
        dij = self.entries[i - 1][j - 1]
        for a in values:
            if a >= dij:
                break
            if a and at_i[a] & at_j.get(dij - a, 0):
                return False
        return True


def _first_triangle_violation(d: DistanceMatrix) -> tuple[int, int, int] | None:
    """First (i, j, w), 1-based in row-major order, with D_iw + D_wj < D_ij.

    The matrix is symmetric here, so only pairs i < j are scanned: the
    shortcut set of a pair is the same in both orders, and no pair p < q
    with q < i can violate when (i, j) is the first violating pair i < j.
    For each level a of row i below D_ij, the shortcuts at that level are
    ``at[a]`` of row i meeting the indices within D_ij - a - 1 of j, so a
    valid matrix costs O(n^2 * max D) mask operations rather than n^3 sums.
    """
    levels = d.levels
    n = d.n
    for i, row in enumerate(d.entries):
        values_i, at_i, _ = levels[i]
        inner = values_i[1:]
        for j in range(i + 1, n):
            dij = row[j]
            values_j, _, within_j = levels[j]
            shortcut = 0
            for a in inner:
                if a >= dij:
                    break
                shortcut |= at_i[a] & within_j[bisect_right(values_j, dij - a - 1) - 1]
            if shortcut:
                return i + 1, j + 1, (shortcut & -shortcut).bit_length()
    return None


def check_structure(m: RawMatrix) -> DistanceMatrix:
    """Check every axiom but the triangle inequality; return the matrix.

    Raises :class:`ValidationError` carrying the first violation found, in a
    fixed scan order: diagonal, then symmetry, then off-diagonal positivity,
    each in row-major index order.  A matrix that passes is recognised by
    whole-row comparisons; the ordered loops run only to name a witness.
    """
    e = m.entries
    if tuple(zip(*e)) == tuple(map(tuple, e)) and all(
        row[i] == 0 and row.count(0) == 1 for i, row in enumerate(e)
    ):
        return DistanceMatrix(e)
    # The matrix failed the check above, so one of these loops raises.
    n = m.n
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


def check_triangles(d: DistanceMatrix) -> DistanceMatrix:
    """Raise :class:`ValidationError` at the first triangle violation of d,
    in row-major (i, j, w) order; return d when there is none."""
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


def distance_matrix(rows: Iterable[Sequence[int]]) -> DistanceMatrix:
    """Convenience: build and validate in one step."""
    return validate(RawMatrix.from_rows(rows))
