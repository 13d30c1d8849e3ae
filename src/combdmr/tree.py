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
distance 0, which ``validate`` rejects.  The weighted tree therefore needs
no check of its own; ``Realisation`` checks the expanded unweighted tree of
a YES, once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import Realisation, _expand_paths, _is_connected
from .matrix import DistanceMatrix


class ZViolationKind(enum.Enum):
    PARITY_TRIPLE = "parity-triple"
    FOUR_POINT = "four-point"
    METRIC = "metric"


@dataclass(frozen=True)
class ZareckiiReport:
    holds: bool
    violation: tuple[ZViolationKind, tuple[int, ...]] | None = None


@dataclass(frozen=True)
class WeightedTree:
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
        if not _is_connected(self.adjacency(), self.vertex_count):
            raise ValueError("tree is not connected")

    def adjacency(self) -> dict[int, dict[int, int]]:
        adj: dict[int, dict[int, int]] = {
            v: {} for v in range(1, self.vertex_count + 1)
        }
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj


def check_zareckii(d: DistanceMatrix) -> ZareckiiReport:
    """Decide tree realisability by the parity and four-point conditions.

    Reports the first violating index tuple, in lexicographic order, of the
    scan of all triples for even perimeter and then of all quadruples for
    "the maximum of the three pairing sums is attained at least twice".
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
                return ZareckiiReport(
                    False, (ZViolationKind.PARITY_TRIPLE, (1, j + 1, k + 1))
                )
    if _four_point_parents(e) is not None:
        return ZareckiiReport(True, None)
    return ZareckiiReport(False, (ZViolationKind.FOUR_POINT, _four_point_witness(e)))


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


def _add_edge(adj: dict[int, dict[int, int]], a: int, b: int, w: int) -> None:
    assert b not in adj.setdefault(a, {})
    adj[a][b] = w
    adj.setdefault(b, {})[a] = w


def _tree_path(adj: dict[int, dict[int, int]], src: int, dst: int) -> list[int]:
    parent: dict[int, int] = {src: 0}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            break
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _freeze(adj: dict[int, dict[int, int]], anchor_count: int) -> WeightedTree:
    """Renumber Steiner vertices contiguously after the anchors."""
    steiner = sorted(v for v in adj if v > anchor_count)
    rename = {v: anchor_count + 1 + i for i, v in enumerate(steiner)}

    def nm(v: int) -> int:
        return v if v <= anchor_count else rename[v]

    edges = frozenset(
        (nm(v), nm(u), w)
        for v, nbrs in adj.items()
        for u, w in nbrs.items()
        if nm(v) < nm(u)
    )
    return WeightedTree(anchor_count + len(steiner), anchor_count, edges)


def build_weighted_tree(d: DistanceMatrix) -> WeightedTree | None:
    """The minimum weighted tree realisation of d, or None if none exists.

    None exactly when the four-point pass of :func:`_four_point_parents`
    fails.  Otherwise anchors are inserted in order into a tree rooted at
    anchor 1: anchor i attaches on the path from 1 to its parent anchor k at
    doubled distance t = G_ik from 1 and with doubled pendant weight
    2 D_1i - t, splitting an edge with a fresh Steiner vertex when the point
    is interior.  Every placed anchor k sits at doubled distance 2 D_1k
    from 1, so the point lies on the path by the triangle inequality.  A
    Steiner vertex is born with degree three or renamed to the anchor that
    lands on it, so the tree needs no canonicalisation, and the pass makes
    every anchor distance right (see the module docstring).
    """
    parents = _four_point_parents(d.entries)
    if parents is None:
        return None
    n = d.n
    e1 = d.entries[0]
    adj: dict[int, dict[int, int]] = {1: {}}
    next_steiner = n + 1
    for i, (k, t) in enumerate(parents, start=2):
        pendant = 2 * e1[i - 1] - t
        path = _tree_path(adj, 1, k)
        pos = [0]
        for a, b in zip(path, path[1:]):
            pos.append(pos[-1] + adj[a][b])
        p = None
        for s in range(len(path)):
            if pos[s] == t:
                p = path[s]
                break
            if pos[s] > t:
                a, b = path[s - 1], path[s]
                w = next_steiner
                next_steiner += 1
                del adj[a][b]
                del adj[b][a]
                _add_edge(adj, a, w, t - pos[s - 1])
                _add_edge(adj, w, b, pos[s] - t)
                p = w
                break
        assert p is not None
        if pendant == 0:
            # Only a Steiner vertex: an anchor there would be at distance 0.
            adj[i] = adj.pop(p)
            for u in adj[i]:
                adj[u][i] = adj[u].pop(p)
        else:
            _add_edge(adj, p, i, pendant)
    return _freeze(adj, n)


def solve_tree(d: DistanceMatrix) -> Realisation | None:
    """Unweighted minimal tree realisation of d, or None if none exists.

    Builds the minimum weighted tree, rejects it when any weight is not an
    integer (odd doubled weight), and otherwise expands each weight-w edge
    into a path of w - 1 fresh auxiliary vertices.  All leaves of the result
    are anchors, so the returned tree is the unique minimal realisation.
    """
    return expand_tree(d, build_weighted_tree(d))


def expand_tree(d: DistanceMatrix, wt: WeightedTree | None) -> Realisation | None:
    """``solve_tree`` from an already built ``build_weighted_tree(d)``."""
    if wt is None or any(w % 2 for _, _, w in wt.edges):
        return None
    halved = [(u, v, w2 // 2) for u, v, w2 in wt.edges]
    return Realisation(_expand_paths(d.n, wt.vertex_count + 1, halved), d)
