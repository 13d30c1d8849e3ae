"""Deciders for realisability with at most k extra vertices.

Every decider answers with a verified :class:`Realisation` or None.  For
k <= 2 they walk one ladder as far as k allows: the unit graph, then one
model each of the 2-CNF formulas for a single extra vertex (phi1), two
non-adjacent extras (phi2) and two adjacent extras (phi2'); the first graph
that realises the matrix wins.  The unit graph is in every realisation, so
the free choices are which anchors the extras attach to, and any model is as
good as any other (the induced anchor metric is assignment-invariant).
phi2' contains phi2, so an unsatisfiable phi2 ends the walk.  The variables
are the candidate edges of ``_candidate_edges``: every graph with extra
vertices, here and in ``solve_exact``, is the unit graph plus some of them.
The ladder never writes a formula down: each literal's successors in its
implication graph are unions of per-row masks read off the matrix's level
masks.  ``build_phi1``, ``build_phi2`` and ``build_phi2_prime`` write the
same formulas as clause lists, for ``solve --dump-cnf`` and the tests.

``solve_exact`` is the brute-force oracle: it fixes the anchor subgraph to
the unit graph (forced in every realisation), enumerates all subsets of the
candidate edges touching the extra vertices, and checks each by one
breadth-first search per anchor.  That check is independent of
``verify_realisation``, which the winning graph then passes through
``Realisation``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import twosat
from .graph import NotARealisation, Realisation, SearchSpaceTooLarge, SimpleGraph
from .graph import _bfs, _neighbour_lists, q_zero, unit_graph
from .matrix import DistanceMatrix, _bits
from .twosat import TwoSatInstance


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


def bounds(d: DistanceMatrix) -> Bounds:
    q0 = q_zero(d)
    n = d.n
    # Each pair at a sits in the level masks of both of its rows.
    extra = sum(
        (a - 1) * mask.bit_count()
        for at in d.levels
        for a, mask in at.items()
        if 2 <= a <= q0
    ) // 2
    return Bounds(q0, n + q0 - 1, n + extra)


def _row_masks(d: DistanceMatrix, a: int) -> list[tuple[int, int]]:
    """Per row i: the j with D_ij > a, and i's primitive partners at a.

    Bit j - 1 stands for index j.  The pairs at a that are not primitive
    are those joined through a w in row i's level b at level a - b of w.
    """
    levels = d.levels
    full = (1 << d.n) - 1
    rows = []
    for at in levels:
        near, shortcut = at[0], 0
        for b in range(1, a):
            mask = at.get(b, 0)
            near |= mask
            for w in _bits(mask):
                shortcut |= levels[w].get(a - b, 0)
        mine = at.get(a, 0)
        rows.append((full & ~(near | mine), mine & ~shortcut))
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


def _implications(rows2: list, extras: int, rows3: list | None = None) -> list[int]:
    """The implication graph of phi1 (one extra), phi2 (two) or, given
    ``rows3``, phi2' (two adjacent), read off the row masks
    ``rows2 = _row_masks(d, 2)`` and ``rows3 = _row_masks(d, 3)``: the graph
    of the builders' clauses.

    Candidate b of ``_candidate_edges`` is variable b + 1, at node b
    (negated) and node V + b, for V = extras * n variables; row i (0-based)
    has x_i of extra t at b = t*n + i, and below, y is the other extra.
    """
    n = len(rows2)
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


def _assignment_graph(unit: SimpleGraph, chosen: Sequence[int], extras: int) -> SimpleGraph:
    """The unit graph plus the candidate edges b with ``chosen[b]`` set."""
    n = unit.vertex_count
    picked = {e for e, on in zip(_candidate_edges(n, extras), chosen) if on}
    return SimpleGraph(n + extras, n, unit.edges | picked)


def _ladder(d: DistanceMatrix, k: int) -> Realisation | None:
    """The first graph of the k <= 2 ladder that realises d, or None.

    The rungs are the unit graph, then one model each of phi1, phi2 and
    phi2', as far as k allows.  The a = 2 row masks are built at the first
    formula and the a = 3 masks only at phi2'.  The :class:`Realisation`
    constructor is the one check of each graph.
    """
    unit = unit_graph(d)
    rows2 = None
    for extras, adjacent in ((0, False), (1, False), (2, False), (2, True)):
        if extras > k:
            break
        graph = unit
        if extras:
            if rows2 is None:
                rows2 = _row_masks(d, 2)
            rows3 = _row_masks(d, 3) if adjacent else None
            model = twosat.solve_implications(_implications(rows2, extras, rows3))
            if model is None:
                if extras == 2:
                    return None  # phi2' contains phi2
                continue
            graph = _assignment_graph(unit, (*model, adjacent), extras)
        try:
            return Realisation(graph, d)
        except NotARealisation:
            pass
    return None


def solve_k0(d: DistanceMatrix) -> Realisation | None:
    """Realisable on exactly the anchors iff the unit graph already works."""
    return _ladder(d, 0)


def solve_k1(d: DistanceMatrix) -> Realisation | None:
    """Decide realisability with at most one extra vertex."""
    return _ladder(d, 1)


def solve_k2(d: DistanceMatrix) -> Realisation | None:
    """Decide realisability with at most two extra vertices."""
    return _ladder(d, 2)


def solve_exact(
    d: DistanceMatrix, k: int, max_free_edges: int = 30
) -> Realisation | None:
    """Brute-force decision for at most k extra vertices.

    Enumerates every subset of the candidate edges touching the k extra
    vertices (the anchor subgraph is forced) in increasing bitmask order and
    returns the first subset whose graph reproduces the matrix, row by row
    from one search per anchor.  Isolated extras are allowed, so a YES means
    "at most n + k vertices".
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if max_free_edges < 0:
        raise ValueError("max_free_edges must be non-negative")
    n = d.n
    free = n * k + k * (k - 1) // 2
    if free > max_free_edges:
        raise SearchSpaceTooLarge(
            f"{free} free edges exceeds the guard of {max_free_edges}"
        )
    unit = unit_graph(d)
    base = list(unit.edges)
    candidates = _candidate_edges(n, k)
    rows = [list(row) for row in d.entries]
    for mask in range(1 << free):
        adj = _neighbour_lists(n + k, base + [candidates[b] for b in _bits(mask)])
        # One search per anchor, so almost every mask fails at anchor 1.
        if all(_bfs(adj, s)[1 : n + 1] == row for s, row in enumerate(rows, 1)):
            return Realisation(_assignment_graph(unit, [mask >> b & 1 for b in range(free)], k), d)
    return None
