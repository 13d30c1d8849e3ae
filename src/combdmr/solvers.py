"""Deciders for realisability with at most k extra vertices.

Every decider answers with a verified :class:`Realisation` or None.  For
k <= 2 they walk the rungs of one ladder, ``_RUNGS``, as far as k allows:
the unit graph, then one model each of the 2-CNF formulas for a single
extra vertex (phi1), two non-adjacent extras (phi2) and two adjacent
extras (phi2'); the first graph that realises the matrix wins.  The unit
graph is in every realisation, so the free choices are which anchors the
extras attach to, and any model is as good as any other (the induced
anchor metric is assignment-invariant).  Each formula is stated once, as a
table of the clauses that one far or primitive pair adds; the ladder
renders a rung's table as implication masks over ``d.masks``, the row
masks each matrix builds once per distance, and ``build_phi*`` and
``ladder_cnf`` (for ``solve --dump-cnf``) as clause lists.  The variables
are ``graph._candidate_edges``.

Two rungs take less than a 2-SAT search.  phi1's only positive clauses
are units, so it is Horn (Dowling and Gallier, 1984): its least model is
the set F of anchors with a primitive partner at 2, and it is satisfiable
iff no two anchors of F are far apart.  ``_phi1_model`` reads F off the
a = 2 row masks; it is also the model the search returns.  A 2-SAT rung
searches only anchors with a primitive partner; no other occurs positively.

By the lower bound n + q0 - 1 of :func:`bounds`, the interior of a
primitive pair's shortest path is all extra, which spares two checks.
From k = 1 on, the ladder checks the unit graph only when the a = 2 row
masks hold no primitive pair (at k = 0 that check is the decision).  And a
primitive pair at 3 needs both extras, next to each other, so no graph of
phi2, whose extras are not adjacent, is checked then; phi2 is solved
first all the same, since an unsatisfiable phi2 ends the walk before the
a = 3 row masks are built.

A NO proves d a metric when the graph of its pairs at 1 and of paths for
the primitive pairs in the row masks the ladder built realises d
(:func:`_proves_metric`); ``cli.cmd_solve`` scans d for a triangle
violation only when that graph does not.

``solve_exact`` is the brute-force oracle: it fixes the anchor subgraph to
the unit graph (forced in every realisation), enumerates all subsets of the
candidate edges touching the extra vertices, and checks each by one
breadth-first search per anchor.  That check is independent of
``verify_realisation``, which the winning graph then passes through
``Realisation``.
"""

from __future__ import annotations

from . import twosat
from .graph import NotARealisation, Realisation, SearchSpaceTooLarge
from .graph import _assignment_graph, _bfs, _candidate_edges, _levels_match, _neighbour_lists
from .graph import unit_graph
from .matrix import DistanceMatrix, _bits, _primitive_pairs, _Value, check_triangles
from .twosat import TwoSatInstance


class Bounds(_Value):
    """Vertex-count bounds for any realisation of a matrix.

    ``lower`` is n + (q0 - 1): some pair needs an elementary path of length
    q0, whose interior is all auxiliary.  ``upper`` counts the canonical
    construction that expands every q0-skeleton edge into an elementary path.
    """

    q0: int
    lower: int
    upper: int


def bounds(d: DistanceMatrix) -> Bounds:
    """The bounds of a matrix that passed ``matrix.check_structure``.

    Raises ``ValidationError`` at d's first triangle violation.  The pass
    that finds q0 lists the primitive pairs, and ``check_triangles`` proves
    d a metric through them; it scans only to name a non-metric's witness.
    """
    q0, partners = _primitive_pairs(d)
    check_triangles(d, partners)
    n = d.n
    # Each pair at a sits in the level masks of both of its rows.
    extra = sum(
        (a - 1) * mask.bit_count()
        for at in d.levels
        for a, mask in at.items()
        if 2 <= a <= q0
    ) // 2
    return Bounds(q0, n + q0 - 1, n + extra)


# Each formula as a table from pair kind to the clauses that one pair i < j
# adds, over n anchors: kind (a, 0) is the pairs with D_ij > a and kind (a, 1)
# the primitive pairs at a.  Every entry is symmetric in i and j.
_PHI1 = {
    (2, 0): lambda i, j, n: ((-i, -j),),
    (2, 1): lambda i, j, n: ((i, i), (j, j)),
}
_PHI2 = {
    (2, 0): lambda i, j, n: ((-i, -j), (-n - i, -n - j)),
    (2, 1): lambda i, j, n: ((i, n + i), (i, n + j), (j, n + i), (j, n + j)),
}
# The clauses that phi2' adds to phi2.
_PHI2_ADJACENT = {
    (3, 0): lambda i, j, n: ((-i, -n - j), (-n - i, -j)),
    (3, 1): lambda i, j, n: ((i, n + i), (j, n + j), (i, j), (n + i, n + j)),
}


# The ladder in order, as (extras, adjacent, table).  phi2' holds every
# entry of phi2 over the same variables, so an unsatisfiable phi2 ends it.
_RUNGS = (
    (0, False, {}),
    (1, False, _PHI1),
    (2, False, _PHI2),
    (2, True, _PHI2 | _PHI2_ADJACENT),
)


def _proves_metric(d: DistanceMatrix) -> bool:
    """True when the graph H of d's pairs at 1 and of a fresh path for each
    primitive pair at 2, and at 3 if ``d.masks`` holds those, realises d.

    H's anchor distances are a metric, so a match proves d one.  A metric is
    the shortest-path metric of its primitive pairs (proved at
    ``matrix._first_triangle_violation``), so H realises every metric whose
    primitive pairs it holds.  The a = 2 masks are built here if the decider
    did not need them.  H goes to ``graph._levels_match`` as neighbour lists:
    as a ``SimpleGraph`` for ``verify_realisation`` it would cost a tenth more.
    """
    adj = [[]] + [[w + 1 for w in _bits(at.get(1, 0))] for at in d.levels]
    for a in (2, 3) if 3 in d.masks else (2,):
        for i, (_, primitive) in enumerate(d.masks[a], 1):
            for b in _bits(primitive >> i):
                fresh = len(adj)
                path = [i, *range(fresh, fresh + a - 1), i + 1 + b]
                adj += [[] for _ in range(a - 1)]
                for u, v in zip(path, path[1:]):
                    adj[u].append(v)
                    adj[v].append(u)
    return _levels_match(adj, d)


def _instance(rung: tuple, d: DistanceMatrix) -> TwoSatInstance:
    """A rung's formula as clauses, kind by kind, pairs in lexicographic order."""
    extras, _, table = rung
    n = d.n
    return TwoSatInstance(extras * n, tuple(
        clause
        for (a, kind), template in table.items()
        for i, masks in enumerate(d.masks[a], 1)
        for j in _bits(masks[kind] >> i)
        for clause in template(i, i + 1 + j, n)
    ))


def build_phi1(d: DistanceMatrix) -> TwoSatInstance:
    """2-CNF over x_i = "anchor i is adjacent to the single extra vertex".

    Pairs at distance > 2 must not both attach (that would shortcut them to
    2); pairs at distance exactly 2 that are primitive (no common neighbour
    in the unit graph) have no other way to meet, so both their variables
    are forced.
    """
    return _instance(_RUNGS[1], d)


def build_phi2(d: DistanceMatrix) -> TwoSatInstance:
    """2-CNF for two non-adjacent extra vertices.

    The variables are the candidate edges of ``_candidate_edges``: anchor i
    to the first extra vertex, then to the second.  The forced pairs now
    only need one of the two extras to carry both endpoints; expanding that
    disjunction of conjunctions distributively gives four clauses per pair.
    """
    return _instance(_RUNGS[2], d)


def build_phi2_prime(d: DistanceMatrix) -> TwoSatInstance:
    """2-CNF for two adjacent extra vertices: a superset of ``build_phi2``.

    The extra edge makes a path of length 3 through both extras available,
    so pairs at distance > 3 must not attach across the two extras, and
    pairs at distance exactly 3 that are primitive (the 2-skeleton cannot
    serve them) must be routed through that path in one of the two
    orientations.
    """
    return _instance(_RUNGS[3], d)


def ladder_cnf(d: DistanceMatrix, k: int) -> str:
    """The DIMACS text of each formula rung that k allows (``solve --dump-cnf``),
    over ``d.masks``, so a dump after the decider builds no mask again."""
    parts = []
    for rung in _RUNGS[1:]:
        extras, adjacent, _ = rung
        if extras > k:
            break
        if extras == 2:
            parts.append(f"c two extra vertices, {'' if adjacent else 'non-'}adjacent\n")
        parts.append(twosat.dimacs(_instance(rung, d)))
    return "".join(parts) or "c no formula involved for k=0\n"


def _implications(rung: tuple, d: DistanceMatrix) -> list[int]:
    """The implication graph of a rung's formula, from its table and ``d.masks``.

    Variable b + 1 is at node b (negated) and node V + b, for V = extras * n.
    An entry at the pair (1, 2) with n = 2 names i's literals 1 and 3 and
    j's 2 and 4.  Row i adds the arcs that leave its own literals: to its
    own literal, or to all its partners of that kind at once.  The entries
    are symmetric in i and j, so the rows of j add the rest.
    """
    extras, _, table = rung
    n = d.n
    v = extras * n

    def node(lit: int) -> int:
        return (abs(lit) - 1) // 2 * n + (v if lit > 0 else 0)

    out = [0] * (2 * v)
    for (a, kind), template in table.items():
        clauses = template(1, 2, 2)
        arcs = [(node(-x), y % 2, node(y)) for c in clauses for x, y in (c, c[::-1]) if x % 2]
        for i, masks in enumerate(d.masks[a]):
            partners = masks[kind]
            if partners:
                for source, own, target in arcs:
                    out[source + i] |= (1 << i if own else partners) << target
    return out


def _phi1_model(d: DistanceMatrix) -> tuple[bool, ...] | None:
    """phi1's least model F from the a = 2 row masks of d, or None.

    ``twosat.solve_implications`` returns F too: no arc enters x_v for an
    anchor v outside F, so its rule for dead variables sets x_v false.
    """
    rows = d.masks[2]
    model = tuple(bool(primitive) for _, primitive in rows)
    forced = sum(1 << v for v, on in enumerate(model) if on)
    if any(rows[v][0] & forced for v in _bits(forced)):
        return None
    return model


def _ladder(d: DistanceMatrix, k: int) -> Realisation | None:
    """The first graph of the rungs that k allows that realises d, or None.

    The rungs share ``d.masks``, so each row mask is built once, and the
    :class:`Realisation` constructor is the one check of each graph.
    """
    unit = unit_graph(d)
    for rung in _RUNGS:
        extras, adjacent, table = rung
        if extras > k:
            break
        if not table and k and any(p for _, p in d.masks[2]):
            continue  # the unit graph puts a primitive pair at 2 beyond 2
        graph = unit
        if table:
            if extras == 1:
                model = _phi1_model(d)
            else:
                model = twosat.solve_implications(_implications(rung, d))
            if model is None:
                if extras == 2:
                    return None  # phi2' holds phi2
                continue
            if extras == 2 and not adjacent and any(p for _, p in d.masks[3]):
                continue  # a primitive pair at 3 needs two adjacent extras
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
