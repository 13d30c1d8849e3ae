"""Unweighted anchored graphs and the skeleton machinery built on them.

A :class:`SimpleGraph` carries a distinguished anchor prefix: vertices
``1..anchor_count`` are the anchors that must reproduce a distance matrix,
and any further vertices are auxiliary.  The q-skeleton of a matrix is the
weighted graph on the anchors with an edge of weight ``D_ij`` whenever
``D_ij <= q``; its shortest-path closure decides, among other things, how
many auxiliary vertices a realisation needs at minimum.

All distances are exact integers; unreachable pairs are ``math.inf``
(arithmetic saturates, comparisons against integer thresholds just work).
Vertex indices are 1-based throughout.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from collections.abc import Iterable, Iterator, Sequence

from .matrix import _LANE_CODES, DistanceMatrix, _bits, _primitive_pairs, _Value

INF = math.inf


class SearchSpaceTooLarge(Exception):
    """A search or size guard was exceeded."""


class SimpleGraph(_Value):
    """Undirected simple graph with anchors 1..anchor_count."""

    vertex_count: int
    anchor_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if not 1 <= self.anchor_count <= self.vertex_count:
            raise ValueError("anchor_count out of range")
        for u, v in self.edges:
            if not 1 <= u < v <= self.vertex_count:
                raise ValueError(f"bad edge ({u}, {v})")

    @staticmethod
    def make(
        vertex_count: int, anchor_count: int, edges: Iterable[tuple[int, int]]
    ) -> "SimpleGraph":
        """Normalise edge endpoint order and reject self-loops."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            norm.add((u, v) if u < v else (v, u))
        return SimpleGraph(vertex_count, anchor_count, frozenset(norm))

    def adjacency(self) -> list[list[int]]:
        """Neighbour lists indexed by vertex, in edge order; slot 0 unused."""
        return _neighbour_lists(self.vertex_count, self.edges)


def _neighbour_lists(size: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Neighbour lists of vertices 1..size, in edge order; slot 0 unused."""
    adj: list[list[int]] = [[] for _ in range(size + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


class ExtendedDistances(_Value):
    """Symmetric distance table; ``math.inf`` marks unreachable pairs."""

    entries: tuple[tuple[int | float, ...], ...]

    def dist(self, i: int, j: int) -> int | float:
        return self.entries[i - 1][j - 1]


class WeightedSkeleton(_Value):
    """Weighted graph on the anchors: edge (i, j, D_ij) whenever D_ij <= q."""

    n: int
    weighted_edges: tuple[tuple[int, int, int], ...]


def _bfs(adj: Sequence[Sequence[int]], s: int) -> list[int | float]:
    """Hop distances from s over neighbour lists, by vertex; slot 0 unused."""
    dist: list[int | float] = [INF] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adj[u]:
            if dist[w] is INF:
                dist[w] = du + 1
                queue.append(w)
    return dist


def _search(
    adj: Sequence[Sequence[int]], n: int
) -> Iterator[tuple[int, dict[int, int], list[int]]]:
    """One breadth-first search from vertices 1..n at once, level by level.

    Each vertex v holds in ``seen[v]`` the mask of the sources that have
    reached it, bit s - 1 for source s, and each level pushes only the
    sources new to a vertex on to its neighbours (Then et al., "The More
    the Merrier", PVLDB 2014).  Yields (level, new, seen) from level 0, the
    sources themselves, while a level reaches anything: ``new`` maps each
    vertex that sources reach first at that level to the mask of those
    sources, and ``seen`` is the search's own reach list, up to date.  A
    vertex meets new sources on at most min(n, diameter + 1) levels, so a
    search costs O(n + E * min(n, diameter)) operations on n-bit integers
    plus one step per level.
    """
    seen = [0] * len(adj)
    new = {}
    for s in range(1, n + 1):
        seen[s] = new[s] = 1 << s - 1
    level = 0
    while new:
        yield level, new, seen
        level += 1
        reached: dict[int, int] = {}
        get = reached.get
        for v, bits in new.items():
            for w in adj[v]:
                reached[w] = get(w, 0) | bits
        new = {}
        for w, bits in reached.items():
            bits &= ~seen[w]
            if bits:
                seen[w] |= bits
                new[w] = bits


def _bfs_rows(g: SimpleGraph, sources: int) -> ExtendedDistances:
    """Hop distances among vertices 1..sources, by one :func:`_search`.

    The distances are kept bit-sliced: plane k holds, for each row vertex
    w, the mask of the sources whose distance to w has bit k set, so a
    level costs one OR per plane its number sets.  Each plane then becomes
    one int with a lane per (w, s) pair: the binary digits of every row's
    mask, each digit turned into a lane of ``size`` bytes holding 0 or
    2**k.  A lane holds any distance below the vertex count, so no graph
    needs a second path.  The planes' sum comes back row by row through
    ``struct``; sources that never reach w are ``inf``.
    """
    size = next(b for b in (1, 2, 4, 8) if g.vertex_count <= 1 << 8 * b)
    planes: list[list[int]] = []
    for level, new, seen in _search(_neighbour_lists(g.vertex_count, g.edges), sources):
        if level.bit_length() > len(planes):
            planes.append([0] * (sources + 1))
        mine = [plane for k, plane in enumerate(planes) if level >> k & 1]
        for w, bits in new.items():
            if w <= sources:
                for plane in mine:
                    plane[w] |= bits
    spec, zero, table = f"0{sources}b", bytes(size), 0
    for k, plane in enumerate(planes):
        digits = "".join([format(plane[w], spec) for w in range(sources, 0, -1)]).encode()
        lanes = digits.replace(b"0", zero).replace(b"1", (1 << k).to_bytes(size, "big"))
        table += int.from_bytes(lanes, "big")
    rows = struct.iter_unpack(
        f"<{sources}{_LANE_CODES[size]}", table.to_bytes(sources * sources * size, "little")
    )
    full = (1 << sources) - 1
    out = []
    for w, row in enumerate(rows, 1):
        missing = full & ~seen[w]
        if missing:
            row = list(row)
            for s in _bits(missing):
                row[s] = INF
        out.append(tuple(row))
    return ExtendedDistances(tuple(out))


def bfs_apsp(g: SimpleGraph) -> ExtendedDistances:
    """Hop distances between all vertex pairs (``inf`` across components)."""
    return _bfs_rows(g, g.vertex_count)


def anchor_distances(g: SimpleGraph) -> ExtendedDistances:
    """Hop distances restricted to the anchor prefix."""
    return _bfs_rows(g, g.anchor_count)


def _levels_match(adj: Sequence[Sequence[int]], d: DistanceMatrix) -> bool:
    """True iff hop distances from anchors 1..d.n over ``adj[v]`` equal d.

    One :func:`_search` runs from all anchors at once.  The anchors new to
    anchor w at level l must be exactly row w's level mask at l.  An anchor
    s that does not reach w at D_ws reaches it at a level whose mask lacks
    s, or never, and then w's mask misses s at the end.  The search stops
    after the first level with a mismatch or that reaches nothing new (the
    pair at the largest entry is then never reached), and after the largest
    entry's level, since vertices still growing beyond it cannot change
    the answer.
    """
    n, levels = d.n, d.levels
    top = max(next(reversed(at)) for at in levels)
    for level, new, seen in _search(adj, n):
        for w, bits in new.items():
            if w <= n and bits != levels[w - 1].get(level):
                return False
        if level == top:
            return seen[1 : n + 1].count((1 << n) - 1) == n
    return False


def verify_realisation(g: SimpleGraph, d: DistanceMatrix) -> bool:
    """True iff anchor-to-anchor hop distances in g equal d exactly, by
    :func:`_levels_match`: one search from all anchors at once, in
    O(n + E * min(n, diameter)) operations on n-bit integers plus one step
    per level, and O(V * n) bits."""
    if g.anchor_count != d.n:
        raise ValueError(
            f"graph has {g.anchor_count} anchors but the matrix has dimension {d.n}"
        )
    # The search from the anchors never reaches a vertex above every edge
    # endpoint, so lists for those would only cost memory.
    top = max((v for _, v in g.edges), default=0)
    return _levels_match(_neighbour_lists(max(g.anchor_count, top), g.edges), d)


class NotARealisation(ValueError):
    """A graph's anchor distances differ from the matrix it should realise."""


class Realisation(_Value):
    """A graph together with the matrix its anchors provably realise."""

    graph: SimpleGraph
    matrix: DistanceMatrix

    def __post_init__(self) -> None:
        if not verify_realisation(self.graph, self.matrix):
            raise NotARealisation("graph does not realise the matrix")


def _is_connected(adj: Sequence[Sequence[int]]) -> bool:
    """True when a walk from vertex 1 over neighbour lists reaches every vertex."""
    return INF not in _bfs(adj, 1)[1:]


def unit_graph(d: DistanceMatrix) -> SimpleGraph:
    """The graph on the anchors with an edge exactly where D_ij = 1.

    This is always the induced subgraph on the anchors of any realisation,
    which is what makes it the fixed starting point of every solver.
    """
    n = d.n
    # Bit b of row i's distance-1 mask, shifted past columns 1..i, is j = i + 1 + b.
    edges = frozenset(
        (i, i + 1 + b)
        for i, at in enumerate(d.levels, 1)
        for b in _bits(at.get(1, 0) >> i)
    )
    return SimpleGraph(n, n, edges)


def _candidate_edges(n: int, k: int) -> list[tuple[int, int]]:
    """The edges that may touch k extra vertices on top of n anchors.

    Candidate b = t*n + i - 1 joins anchor i to extra vertex n + 1 + t and
    is 2-SAT variable b + 1; the pairs of extras follow, so for k = 2 the
    edge between the two extras is candidate 2n.
    """
    pairs = [(n + 1 + a, n + 1 + b) for a in range(k) for b in range(a + 1, k)]
    return [(i, n + 1 + t) for t in range(k) for i in range(1, n + 1)] + pairs


def _assignment_graph(unit: SimpleGraph, chosen: Sequence[int], extras: int) -> SimpleGraph:
    """The anchor graph ``unit`` plus the candidate edges b with ``chosen[b]`` set."""
    n = unit.vertex_count
    picked = {e for e, on in zip(_candidate_edges(n, extras), chosen) if on}
    return SimpleGraph(n + extras, n, unit.edges | picked)


def q_skeleton(d: DistanceMatrix, q: int) -> WeightedSkeleton:
    """Weighted anchor graph keeping pairs with D_ij <= q, weight D_ij."""
    if q < 1:
        raise ValueError("q must be positive")
    edges = tuple(
        (i, j, dij)
        for i, row in enumerate(d.entries, 1)
        for j, dij in enumerate(row[i:], i + 1)
        if dij <= q
    )
    return WeightedSkeleton(d.n, edges)


def skeleton_distances(s: WeightedSkeleton) -> ExtendedDistances:
    """Shortest-path closure of a skeleton, as the anchor distances of its
    :func:`expand_elementary_paths`: the expansion's paths share no interior
    vertex, so a walk between anchors crosses each path it enters from end
    to end, at that edge's weight.  The q-skeleton's expansion has
    n + sum(D_ij - 1) vertices over the pairs with D_ij <= q, all covered
    by one search from the anchors."""
    return anchor_distances(expand_elementary_paths(s))


def q_zero(d: DistanceMatrix) -> int:
    """Least q whose skeleton closure reproduces the matrix: the largest
    primitive entry of ``matrix._primitive_pairs``, and at least 1.  A
    primitive pair's edge must be in the skeleton, and by induction on D_ij
    every other pair closes through an anchor w with D_iw + D_wj = D_ij."""
    return _primitive_pairs(d)[0]


def expand_elementary_paths(s: WeightedSkeleton) -> SimpleGraph:
    """Replace each weighted edge by a path of that many unit edges.

    Every edge (i, j, w) becomes a path through w - 1 fresh auxiliary
    vertices (a direct edge when w = 1); paths share no interior vertices.
    Auxiliary vertices are numbered contiguously after the anchors, in
    lexicographic edge order, so the output is reproducible.
    """
    return _expand_paths(s.n, s.n + 1, s.weighted_edges)


def _expand_paths(
    anchor_count: int, first_fresh: int, weighted_edges: Iterable[tuple[int, int, int]]
) -> SimpleGraph:
    """Paths for weighted edges, fresh vertices numbered from ``first_fresh``."""
    edges: list[tuple[int, int]] = []
    nxt = first_fresh
    for i, j, w in sorted(weighted_edges):
        if w == 1:
            edges.append((i, j))
        else:
            chain = [i] + list(range(nxt, nxt + w - 1)) + [j]
            nxt += w - 1
            edges.extend(
                (min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])
            )
    return SimpleGraph(nxt - 1, anchor_count, frozenset(edges))
