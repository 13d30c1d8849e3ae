"""Tree realisability: certificate check, construction, and expansion.

A matrix has an unweighted tree realisation iff it passes the classical
four-point and parity conditions, iff its unique minimum weighted tree
realisation exists and has integer edge weights.  Both the certificate and
the builder read the doubled Gromov products at anchor 1,
G_jk = D_1j + D_1k - D_jk, in one pass that gives each anchor v a parent p
among the earlier anchors and a doubled attach depth w = G_vp, or stops at
the first violation of the four-point condition.  The builder hangs v at
doubled depth w on the path from anchor 1 to p, in doubled integer weights
so that half-integer branch points are exact and no floating point ever
appears.  The pass has checked G_vu = min(w, G_pu) for every earlier anchor
u, so by induction on the anchors, if p meets u at doubled depth G_pu then
v meets u at doubled depth G_vu, and their doubled tree distance is
2 D_1v + 2 D_1u - 2 G_vu = 2 D_vu.  Two anchors on one point would be at
distance 0, which ``matrix.check_structure`` rejects.  The weighted tree
therefore needs no check of its own; ``Realisation`` checks the expanded
unweighted tree of a YES, once, after a size guard: entries up to 2^32 - 1
could ask for that many vertices.  The certificate answers with its first
violation in the one vocabulary ``matrix.ViolationKind``, or None; a
caller that built the tree hands it the pass's answer, so the pass runs
once.
"""

from __future__ import annotations

from .graph import _MAX_VERTICES, Realisation, SearchSpaceTooLarge, _expand_paths
from .graph import _is_connected, _neighbour_lists
from .matrix import DistanceMatrix, ViolationKind, _Value


class WeightedTree(_Value):
    """Tree with positive half-integer edge weights, stored doubled.

    ``edges`` holds (u, v, doubled_weight) with u < v; the real weight of an
    edge is doubled_weight / 2.  Anchors are vertices 1..anchor_count.
    """

    vertex_count: int
    anchor_count: int
    edges: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        if not 1 <= self.anchor_count <= self.vertex_count:
            raise ValueError("anchor_count out of range")
        if len(self.edges) != self.vertex_count - 1:
            raise ValueError("edge count does not match a tree")
        for u, v, w in self.edges:
            if not 1 <= u < v <= self.vertex_count:
                raise ValueError(f"bad edge ({u}, {v})")
            if w < 1:
                raise ValueError("zero-weight edge")
        adj = _neighbour_lists(self.vertex_count, ((u, v) for u, v, _ in self.edges))
        if not _is_connected(adj):
            raise ValueError("tree is not connected")


def check_zareckii(
    d: DistanceMatrix, four_point: bool | None = None
) -> tuple[ViolationKind, tuple[int, ...]] | None:
    """The first violation of the parity and four-point conditions as
    ``(ViolationKind, witness)``, or None when d has a tree realisation.

    ``four_point`` is the answer of :func:`_four_point_parents` when the
    caller has it already, ``build_weighted_tree(d) is not None``; the pass
    runs here only when it is None.

    The witness is the first violating index tuple, in lexicographic order,
    of the scan of all triples for even perimeter and then of all quadruples
    for "the maximum of the three pairing sums is attained at least twice".
    Tuples with repeated indices satisfy the conditions automatically for a
    validated matrix.  Only the tuples that start with anchor 1 matter: they
    come first in that order, and if any tuple violates a condition then one
    of them does.

    - Parity: the perimeters of (1, i, j), (1, i, k) and (1, j, k) sum to
      that of (i, j, k) mod 2, so if (i, j, k) is odd one of them is odd.
      The scan of the pairs (j, k) is O(n^2).
    - Four-point: a metric that satisfies the condition on every quadruple
      containing one base point satisfies it on every quadruple (Gromov's
      base-point lemma with delta = 0).  In the doubled Gromov products
      G_jk = D_1j + D_1k - D_jk, (1, j, k, l) holds iff the smallest of
      G_jk, G_jl and G_kl is attained twice.  That holds for all j, k, l
      iff every G_jk is the smallest weight on the j-k path of a maximum
      spanning tree of G over anchors 2..n, which :func:`_four_point_parents`
      checks in O(n^2).  The O(n^3) scan runs only when it fails, to name
      the first violating quadruple.
    """
    e = d.entries
    n = d.n
    e1 = e[0]
    for j in range(1, n):
        for k in range(j + 1, n):
            if (e1[j] + e1[k] + e[j][k]) % 2:
                return ViolationKind.PARITY_TRIPLE, (1, j + 1, k + 1)
    if four_point is None:
        four_point = _four_point_parents(e) is not None
    if four_point:
        return None
    return ViolationKind.FOUR_POINT, _four_point_witness(e)


def _four_point_parents(
    e: tuple[tuple[int, ...], ...]
) -> list[tuple[int, int]] | None:
    """Each anchor's parent and doubled attach depth, or None unless
    G_jl >= min(G_jk, G_kl) for all anchors j, k, l >= 2.

    Anchors 2..n join a tree in index order, each through the earlier
    anchor p with the largest G_vp = w, and the check is G_vu = min(w, G_pu)
    for every earlier u.  By induction G_pu is the smallest weight on the
    tree path from p to u, so a full pass makes every G_jk the smallest
    weight on its tree path: the tree is then a maximum spanning tree of G,
    and G satisfies the inequality because the j-l path lies in the union
    of the j-k and k-l paths.  A mismatch exhibits a violating triple:
    either G_vu is below both G_vp and G_pu, or, as G_vu <= w by the choice
    of p, G_pu is below both G_vp and G_vu.

    Entry v - 2 of the list is (p, w) for anchor v, with p numbered from 1.
    Anchor 1 is a candidate parent too; as G_v1 = 0 it is chosen only when
    every earlier G_vu is 0, and then every candidate gives the same check.
    """
    e1 = e[0]
    g = [[a + b - c for b, c in zip(e1, row)] for a, row in zip(e1, e)]
    parents = []
    for v in range(1, len(e)):
        gv = g[v]
        p = max(range(v), key=gv.__getitem__)
        w = gv[p]
        # G_vu against min(w, G_pu), for the earlier anchors u.
        if gv[:v] != [b if b < w else w for b in g[p][:v]]:
            return None
        parents.append((p + 1, w))
    return parents


def _four_point_witness(e: tuple[tuple[int, ...], ...]) -> tuple[int, int, int, int]:
    """The lexicographically first quadruple (1, j, k, l) whose largest
    pairing sum is attained once, by an O(n^3) scan; one must exist."""
    n = len(e)
    e1 = e[0]
    for j in range(1, n):
        for k in range(j + 1, n):
            for l in range(k + 1, n):
                sums = sorted((e1[j] + e[k][l], e1[k] + e[j][l], e1[l] + e[j][k]))
                if sums[1] != sums[2]:
                    return (1, j + 1, k + 1, l + 1)
    raise AssertionError("four-point check failed on no quadruple")


def build_weighted_tree(d: DistanceMatrix) -> WeightedTree | None:
    """The minimum weighted tree realisation of d, or None if none exists.

    None exactly when the four-point pass of :func:`_four_point_parents`
    fails.  Otherwise the tree is rooted at anchor 1 and kept as parent
    pointers ``up`` and doubled depths ``depth``, with ``point[k]`` the point
    where anchor k sits; the root's parent is a sentinel of depth -1.
    Anchor i with parent anchor k attaches at doubled depth t = G_ik on the
    path from the root to ``point[k]``, which lies there because
    t <= 2 D_1k.  The walk goes up from ``point[k]`` while the parent's
    depth is at least t: the point reached has depth t, or a fresh Steiner
    point of depth t is made between it and its parent.  With a doubled
    pendant 2 D_1i - t of 0 the attach point is a Steiner point (an anchor
    there would be at distance 0), and anchor i takes it over by name;
    otherwise i hangs below it.  Every Steiner point that is not taken over
    has degree at least three, so the tree needs no canonicalisation, and
    the pass makes every anchor distance right (see the module docstring).
    The surviving Steiner points are numbered n + 1, ... in the order they
    were made.
    """
    parents = _four_point_parents(d.entries)
    if parents is None:
        return None
    n = d.n
    e1 = d.entries[0]
    # Point 0 is the sentinel, points 1..n the anchors, and Steiner points
    # are appended from n + 1.
    up = [0] * (n + 1)
    depth = [-1] + [0] * n
    point = list(range(n + 1))
    for i, (k, t) in enumerate(parents, start=2):
        x = point[k]
        while depth[up[x]] >= t:
            x = up[x]
        if depth[x] > t:
            s = len(up)
            up.append(up[x])
            depth.append(t)
            up[x] = s
            x = s
        if 2 * e1[i - 1] == t:
            point[i] = x
        else:
            up[i] = x
            depth[i] = 2 * e1[i - 1]
    name = [0] * len(up)
    for i in range(1, n + 1):
        name[point[i]] = i
    v = n
    for s in range(n + 1, len(up)):
        if not name[s]:
            v += 1
            name[s] = v
    edges = []
    for x in range(2, len(up)):
        if name[x]:
            a, b = sorted((name[x], name[up[x]]))
            edges.append((a, b, depth[x] - depth[up[x]]))
    return WeightedTree(v, n, frozenset(edges))


def solve_tree(d: DistanceMatrix) -> Realisation | None:
    """Unweighted minimal tree realisation of d, or None if none exists.

    Builds the minimum weighted tree, rejects it when any weight is not an
    integer (odd doubled weight), and otherwise expands each weight-w edge
    into a path of w - 1 fresh auxiliary vertices.  All leaves of the result
    are anchors, so the returned tree is the unique minimal realisation.
    """
    return expand_tree(d, build_weighted_tree(d))


def expand_tree(d: DistanceMatrix, wt: WeightedTree | None) -> Realisation | None:
    """``solve_tree`` from an already built ``build_weighted_tree(d)``; raises
    ``SearchSpaceTooLarge`` above ``_MAX_VERTICES`` expanded vertices."""
    if wt is None or any(w % 2 for _, _, w in wt.edges):
        return None
    halved = [(u, v, w2 // 2) for u, v, w2 in wt.edges]
    vertices = wt.vertex_count + sum(w - 1 for _, _, w in halved)
    if vertices > _MAX_VERTICES:
        raise SearchSpaceTooLarge(
            f"{vertices} vertices exceeds the guard of {_MAX_VERTICES}"
        )
    return Realisation(_expand_paths(d.n, wt.vertex_count + 1, halved), d)
