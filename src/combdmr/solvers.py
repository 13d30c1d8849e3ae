"""Deciders for realisability with at most k extra vertices.

For k = 0 the unit graph either works or nothing does.  For k = 1 and k = 2
the free choices are exactly which anchors the extra vertices attach to, and
those choices are captured by 2-CNF formulas over edge variables: one
formula for a single extra vertex, one for two non-adjacent extras, and an
extended one for two adjacent extras.  Any single satisfying assignment is
as good as any other (the induced anchor metric is assignment-invariant),
so each decider solves once, builds the induced graph, and compares anchor
distances against the target matrix.  The variables are the candidate edges
of ``_candidate_edges``: every graph with extra vertices, here and in
``solve_exact``, is the unit graph plus some of them.  The deciders never
write a formula down: each literal's successors in its implication graph
are unions of per-row masks read off the matrix's level masks.
``build_phi1``, ``build_phi2`` and ``build_phi2_prime`` write the same
formulas as clause lists, for ``solve --dump-cnf`` and the tests.

``solve_exact`` is the brute-force oracle: it fixes the anchor subgraph to
the unit graph (forced in every realisation), enumerates all subsets of the
candidate edges touching the extra vertices, and checks each by one
breadth-first search per anchor.  That check is independent of
``verify_realisation``, which the winning graph then passes through
``Realisation``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from . import twosat
from .graph import NotARealisation, Realisation, SimpleGraph, q_zero, unit_graph
from .graph import _bfs, _neighbour_lists
from .matrix import DistanceMatrix, _bits
from .twosat import TwoSatInstance


class SearchSpaceTooLarge(Exception):
    """An exhaustive search guard was exceeded."""


@dataclass(frozen=True)
class SolveOutcome:
    answer: bool
    realisation: Realisation | None
    extra_vertices_used: int


@dataclass(frozen=True)
class Bounds:
    """Vertex-count bounds for any realisation of a matrix.

    ``lower`` is n + (q0 - 1): some pair needs an elementary path of length
    q0, whose interior is all auxiliary.  ``upper`` counts the canonical
    construction that expands every q0-skeleton edge into an elementary path.
    """

    q0: int
    lower: int
    upper: int


_NO = SolveOutcome(False, None, 0)


def bounds(d: DistanceMatrix) -> Bounds:
    q0 = q_zero(d)
    n = d.n
    extra = sum(
        d.dist(i, j) - 1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if 2 <= d.dist(i, j) <= q0
    )
    return Bounds(q0, n + q0 - 1, n + extra)


def _outcome(g: SimpleGraph, d: DistanceMatrix) -> SolveOutcome:
    """YES with g when g realises d, else NO.

    The :class:`Realisation` constructor is the one verification of g.
    """
    try:
        return SolveOutcome(True, Realisation(g, d), g.vertex_count - d.n)
    except NotARealisation:
        return _NO


def solve_k0(d: DistanceMatrix) -> SolveOutcome:
    """Realisable on exactly the anchors iff the unit graph already works."""
    return _outcome(unit_graph(d), d)


def _row_masks(d: DistanceMatrix, a: int) -> list[tuple[int, int]]:
    """Per row i: the j with D_ij > a, and i's primitive partners at a.

    Bit j - 1 stands for index j.  The pairs at a that are not primitive
    are those joined through a w in row i's level b at level a - b of w.
    """
    levels = d.levels
    full = (1 << d.n) - 1
    rows = []
    for values, at, within in levels:
        shortcut = 0
        for b in range(1, a):
            for w in _bits(at.get(b, 0)):
                shortcut |= levels[w].at.get(a - b, 0)
        beyond = full & ~within[bisect_right(values, a) - 1]
        rows.append((beyond, at.get(a, 0) & ~shortcut))
    return rows


def _pairs(d: DistanceMatrix, a: int) -> list[list[tuple[int, int]]]:
    """Far pairs (D_ij > a) and primitive pairs at a, lexicographic."""
    rows = _row_masks(d, a)
    return [
        [(i, i + 1 + j) for i, masks in enumerate(rows, 1) for j in _bits(masks[k] >> i)]
        for k in (0, 1)
    ]


def build_phi1(d: DistanceMatrix) -> TwoSatInstance:
    """2-CNF over x_i = "anchor i is adjacent to the single extra vertex".

    Pairs at distance > 2 must not both attach (that would shortcut them to
    2); pairs at distance exactly 2 that are primitive (no common neighbour
    in the unit graph) have no other way to meet, so both their variables
    are forced.
    """
    far, forced = _pairs(d, 2)
    clauses = [(-i, -j) for i, j in far]
    for i, j in forced:
        clauses += ((i, i), (j, j))
    return TwoSatInstance(d.n, tuple(clauses))


def build_phi2(d: DistanceMatrix) -> TwoSatInstance:
    """2-CNF for two non-adjacent extra vertices.

    The variables are the candidate edges of ``_candidate_edges``: anchor i
    to the first extra vertex, then to the second.  The forced pairs now
    only need one of the two extras to carry both endpoints; expanding that
    disjunction of conjunctions distributively gives four clauses per pair.
    """
    n = d.n
    far, forced = _pairs(d, 2)
    clauses: list[twosat.Clause] = []
    for i, j in far:
        clauses += ((-i, -j), (-n - i, -n - j))
    for i, j in forced:
        clauses += ((i, n + i), (i, n + j), (j, n + i), (j, n + j))
    return TwoSatInstance(2 * n, tuple(clauses))


def build_phi2_prime(d: DistanceMatrix) -> TwoSatInstance:
    """2-CNF for two adjacent extra vertices: a superset of ``build_phi2``.

    The extra edge makes a path of length 3 through both extras available,
    so pairs at distance > 3 must not attach across the two extras, and
    pairs at distance exactly 3 that are primitive (the 2-skeleton cannot
    serve them) must be routed through that path in one of the two
    orientations.
    """
    n = d.n
    far, forced = _pairs(d, 3)
    clauses = list(build_phi2(d).clauses)
    for i, j in far:
        clauses += ((-i, -n - j), (-n - i, -j))
    for i, j in forced:
        clauses += ((i, n + i), (j, n + j), (i, j), (n + i, n + j))
    return TwoSatInstance(2 * n, tuple(clauses))


def _implications(n: int, rows2: list, extras: int, rows3: list | None = None) -> list[int]:
    """The implication graph of phi1 (one extra), phi2 (two) or, given
    ``rows3``, phi2' (two adjacent), read off the row masks
    ``rows2 = _row_masks(d, 2)`` and ``rows3 = _row_masks(d, 3)``: the graph
    of the builders' clauses.

    Candidate b of ``_candidate_edges`` is variable b + 1, at node b
    (negated) and node V + b, for V = extras * n variables; row i (0-based)
    has x_i of extra t at b = t*n + i, and below, y is the other extra.
    """
    v = extras * n
    out = [0] * (2 * v)
    for i, (beyond, partners) in enumerate(rows2):
        # x_i -> -x_j for far j; if i is forced, -x_i -> x_i (one extra) or
        # -x_i -> y_i, y_j for its partners j (two).
        own = 1 << i if partners else 0
        forced = own | partners if extras == 2 else own
        for t in range(extras):
            out[v + t * n + i] = beyond << t * n
            out[t * n + i] = forced << v + (extras - 1 - t) * n
    for i, (beyond, partners) in enumerate(rows3 or ()):
        own = 1 << i if partners else 0
        # x_i -> -y_j for far j, and -x_i -> y_i, x_j for partners j.
        out[v + i] |= beyond << n
        out[v + n + i] |= beyond
        out[i] |= own << v + n | partners << v
        out[n + i] |= own << v | partners << v + n
    return out


def _candidate_edges(n: int, k: int) -> list[tuple[int, int]]:
    """The edges that may touch k extra vertices on top of n anchors.

    Candidate b = t*n + i - 1 joins anchor i to extra vertex n + 1 + t and
    is 2-SAT variable b + 1; the pairs of extras follow, so for k = 2 the
    edge between the two extras is candidate 2n.
    """
    pairs = [(n + 1 + a, n + 1 + b) for a in range(k) for b in range(a + 1, k)]
    return [(i, n + 1 + t) for t in range(k) for i in range(1, n + 1)] + pairs


def _assignment_graph(d: DistanceMatrix, chosen: Sequence[int], extras: int) -> SimpleGraph:
    """The unit graph plus the candidate edges b with ``chosen[b]`` set."""
    n = d.n
    picked = {e for e, on in zip(_candidate_edges(n, extras), chosen) if on}
    return SimpleGraph(n + extras, n, unit_graph(d).edges | picked)


def _attach(
    d: DistanceMatrix, extras: int, rows2: list, rows3: list | None = None
) -> SolveOutcome | None:
    """Solve phi1, phi2 or, given ``rows3``, phi2' and check its model's
    graph, whose extras are adjacent exactly for phi2'; None if unsatisfiable."""
    model = twosat.solve_implications(_implications(d.n, rows2, extras, rows3))
    if model is None:
        return None
    return _outcome(_assignment_graph(d, (*model, rows3 is not None), extras), d)


def solve_k1(d: DistanceMatrix) -> SolveOutcome:
    """Decide realisability with at most one extra vertex."""
    base = solve_k0(d)
    if base.answer:
        return base
    return _attach(d, 1, _row_masks(d, 2)) or _NO


def solve_k2(d: DistanceMatrix) -> SolveOutcome:
    """Decide realisability with at most two extra vertices."""
    base = solve_k1(d)
    if base.answer:
        return base
    rows2 = _row_masks(d, 2)
    outcome = _attach(d, 2, rows2)
    if outcome is None:
        # The non-adjacent formula is necessary for both cases.
        return _NO
    if outcome.answer:
        return outcome
    return _attach(d, 2, rows2, _row_masks(d, 3)) or _NO


def solve_exact(
    d: DistanceMatrix, k: int, max_free_edges: int = 30
) -> SolveOutcome:
    """Brute-force decision for at most k extra vertices.

    Enumerates every subset of the candidate edges touching the k extra
    vertices (the anchor subgraph is forced) in increasing bitmask order and
    returns the first subset whose graph reproduces the matrix, row by row
    from one search per anchor.  Isolated extras are allowed, so a YES means
    "at most n + k vertices".
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = d.n
    free = n * k + k * (k - 1) // 2
    if free > max_free_edges:
        raise SearchSpaceTooLarge(
            f"{free} free edges exceeds the guard of {max_free_edges}"
        )
    base = list(unit_graph(d).edges)
    candidates = _candidate_edges(n, k)
    rows = [list(row) for row in d.entries]
    for mask in range(1 << free):
        adj = _neighbour_lists(n + k, base + [candidates[b] for b in _bits(mask)])
        # One search per anchor, so almost every mask fails at anchor 1.
        if all(_bfs(adj, s, n + k)[1 : n + 1] == row for s, row in enumerate(rows, 1)):
            g = _assignment_graph(d, [mask >> b & 1 for b in range(free)], k)
            return SolveOutcome(True, Realisation(g, d), k)
    return _NO
