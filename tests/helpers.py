"""Independent oracles and shared generators for the test suite.

Everything here deliberately avoids the library code paths it is used to
check, and the library keeps none of it:

- matrices: ``dm`` (``validate`` of ``RawMatrix.from_rows``, in one call),
  ``rows`` (a matrix's entries as tuples, to compare with literals),
  ``brute_is_distance_matrix`` and ``first_violation_oracle`` (loops over
  every triple), ``triangle_oracle`` (per-pair level masks rather than
  packed rows), ``parse_matrix_oracle`` (per token), and
  ``level_masks_oracle`` and ``row_masks_oracle`` (a loop over each row);
- trees: ``four_point_oracle`` and ``zareckii_oracle`` (every quadruple),
  and labelled trees from sequence decoding (``decode_tree``,
  ``all_labelled_trees``) rather than the incremental builder;
- distances: ``bfs_rows``, ``bfs_distances``, ``anchor_metric`` and
  ``graph_realises`` (a standalone BFS), ``dijkstra_apsp`` and
  ``skeleton_closure_oracle`` (Dijkstra, where the library searches the
  path expansion), ``primitive_partners_oracle`` and ``q_zero_oracle``,
  ``weighted_links`` (a certificate's links for given partners, by
  comprehension), and ``gadget_matrix_oracle`` (a search of the whole
  gadget graph rather than ``reduce``'s closed form);
- 2-SAT: ``model_bitmap``, ``brute_satisfiable`` and ``enumerate_models``
  (every assignment as a bitmap), ``kosaraju_oracle`` (every literal of an
  implication graph) and ``check_assignment`` (clause by clause);
- deciders: ``first_verified_assignment`` (``verify_realisation`` on every
  candidate-edge mask, where ``solve_exact`` runs one BFS per anchor);
- colourings: ``brute_chromatic`` (every colouring, smallest k first).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from collections import deque
from itertools import accumulate, combinations, permutations, product
from operator import or_

from hypothesis import strategies as st

from combdmr import generate
from combdmr.graph import (
    SimpleGraph,
    _assignment_graph,
    bfs_apsp,
    unit_graph,
    verify_realisation,
)
from combdmr.matrix import (
    DistanceMatrix,
    RawMatrix,
    ValidationError,
    ViolationKind,
    _bits,
    check_structure,
    validate,
)
from combdmr.reduction import reduce
from combdmr.tree import WeightedTree
from combdmr.twosat import TwoSatInstance

INF = float("inf")


# -- fixed reference instances -------------------------------------------------

ALL_TWOS_3 = [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
ALL_ONES_3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
EIGHT_BY_EIGHT = [
    [0, 2, 2, 2, 1, 3, 3, 1],
    [2, 0, 2, 2, 3, 1, 3, 1],
    [2, 2, 0, 2, 3, 1, 1, 3],
    [2, 2, 2, 0, 1, 3, 1, 3],
    [1, 3, 3, 1, 0, 4, 2, 2],
    [3, 1, 1, 3, 4, 0, 2, 2],
    [3, 3, 1, 1, 2, 2, 0, 4],
    [1, 1, 3, 3, 2, 2, 4, 0],
]
FOUR_CYCLE_METRIC = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
QUAD_GRAPH_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]


def dm(rows) -> DistanceMatrix:
    return validate(RawMatrix.from_rows(rows))


def rows(m) -> tuple[tuple, ...]:
    """The entries of a matrix or distance table as tuples, whichever row
    type it holds: a matrix of byte-sized entries keeps ``bytes`` rows, and
    ``b"\\x00\\x01" != (0, 1)``."""
    return tuple(map(tuple, m.entries))


# -- independent metric check ------------------------------------------------

def brute_is_distance_matrix(rows) -> bool:
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    for i in range(n):
        if rows[i][i] != 0:
            return False
        for j in range(n):
            if i != j and (rows[i][j] <= 0 or rows[i][j] != rows[j][i]):
                return False
    for i in range(n):
        for j in range(n):
            for w in range(n):
                if rows[i][w] + rows[w][j] < rows[i][j]:
                    return False
    return True


def first_violation_oracle(rows):
    """``(kind, witness)`` of the first axiom violation of a square matrix,
    or None, by direct scans in the documented order of ``validate``:
    diagonal, symmetry, off-diagonal positivity, then the O(n^3) triangle
    scan over (i, j, w) in row-major order."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0:
            return ViolationKind.DIAGONAL_NONZERO, (i + 1,)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return ViolationKind.ASYMMETRIC, (i + 1, j + 1)
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] == 0:
                return ViolationKind.OFF_DIAGONAL_ZERO, (i + 1, j + 1)
    for i in range(n):
        for j in range(n):
            for w in range(n):
                if rows[i][w] + rows[w][j] < rows[i][j]:
                    return ViolationKind.TRIANGLE_VIOLATION, (i + 1, j + 1, w + 1)
    return None


def triangle_oracle(d: DistanceMatrix):
    """First (i, j, w), 1-based in row-major order, with D_iw + D_wj < D_ij,
    or None, of a matrix that passed the structural checks, by the level
    masks of :func:`level_masks_oracle`: for each pair i < j and each level
    a of row i below D_ij, the shortcuts are ``at[a]`` of row i meeting the
    indices within D_ij - a - 1 of j."""
    levels = [level_masks_oracle(row) for row in d.entries]
    # Per row: its values ascending, and the union of its masks up to each.
    within = [(tuple(at), tuple(accumulate(at.values(), or_))) for at in levels]
    n = d.n
    for i, row in enumerate(d.entries):
        at_i = levels[i]
        for j in range(i + 1, n):
            dij = row[j]
            values_j, within_j = within[j]
            shortcut = 0
            for a, mask in at_i.items():
                if a >= dij:
                    break
                if a:
                    shortcut |= mask & within_j[bisect_right(values_j, dij - a - 1) - 1]
            if shortcut:
                return i + 1, j + 1, (shortcut & -shortcut).bit_length()
    return None


def four_point_oracle(rows):
    """The lexicographically first quadruple (i, j, k, l) of a validated
    matrix whose largest pairing sum is attained once, or None, by the full
    O(n^4) scan."""
    e = rows
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    sums = sorted(
                        (
                            e[i][j] + e[k][l],
                            e[i][k] + e[j][l],
                            e[i][l] + e[j][k],
                        )
                    )
                    if sums[1] != sums[2]:
                        return (i + 1, j + 1, k + 1, l + 1)
    return None


def zareckii_oracle(rows):
    """``(kind, witness)`` of the first tree-condition violation of a
    validated matrix, or None, by the full scans: every triple for odd
    perimeter, then every quadruple for a pairing-sum maximum attained once,
    each in lexicographic order (O(n^4))."""
    e = rows
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (e[i][j] + e[i][k] + e[j][k]) % 2:
                    return ViolationKind.PARITY_TRIPLE, (i + 1, j + 1, k + 1)
    quadruple = four_point_oracle(rows)
    if quadruple is not None:
        return ViolationKind.FOUR_POINT, quadruple
    return None


# -- reading matrices ----------------------------------------------------------

def parse_matrix_oracle(text):
    """``(rows, None)`` for a matrix file ``textio.parse_matrix`` accepts,
    else ``(None, (line, reason))`` of the ``ParseError`` it must raise, by
    one loop over the tokens of each content line: ``int`` on each token in
    order, then its sign and 32-bit range, then the line's length."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if s and not s.startswith("#"):
            lines.append((lineno, s))
    if not lines:
        return None, (1, "empty matrix")
    rows = []
    for lineno, s in lines:
        row = []
        for tok in s.split():
            try:
                v = int(tok)
            except ValueError:
                return None, (lineno, f"not an integer: {tok!r}")
            if v < 0:
                return None, (lineno, f"negative value {v}")
            if v > 2**32 - 1:
                return None, (lineno, f"value {v} exceeds 32-bit range")
            row.append(v)
        if len(row) != len(lines):
            return None, (lineno, f"expected {len(lines)} entries, got {len(row)}")
        rows.append(tuple(row))
    return tuple(rows), None


def level_masks_oracle(row):
    """The level dict of one matrix row by a loop over its entries: each
    distinct entry a, ascending, maps to the mask with bit w set when
    row[w] == a."""
    at = {}
    for w, x in enumerate(row):
        at[x] = at.get(x, 0) | 1 << w
    return {a: at[a] for a in sorted(at)}


def row_masks_oracle(d: DistanceMatrix, a: int) -> list[tuple[int, int]]:
    """Per row i: the j with D_ij > a, and i's primitive partners at a, by
    the two-sided pass: the shortcuts of row i are the level a - b masks
    of every w at each level 0 < b < a of row i, so both ends of a path
    are read from i's side."""
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


# -- weighted tree canonical form ----------------------------------------------

def _add_edge(adj: dict[int, dict[int, int]], a: int, b: int, w: int) -> None:
    assert b not in adj.setdefault(a, {})
    adj[a][b] = w
    adj.setdefault(b, {})[a] = w


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


def _canonical_adj(adj, anchor_count):
    adj = {v: dict(nbrs) for v, nbrs in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if v in adj and v > anchor_count and len(adj[v]) == 1:
                (nb,) = adj[v]
                del adj[nb][v]
                del adj[v]
                changed = True
    while True:
        v = next(
            (u for u in sorted(adj) if u > anchor_count and len(adj[u]) == 2),
            None,
        )
        if v is None:
            break
        (a, wa), (b, wb) = sorted(adj[v].items())
        del adj[a][v]
        del adj[b][v]
        del adj[v]
        _add_edge(adj, a, b, wa + wb)
    return adj


def weighted_adjacency(t: WeightedTree) -> dict[int, dict[int, int]]:
    """Vertex -> {neighbour: doubled weight}, for every vertex of t."""
    adj: dict[int, dict[int, int]] = {v: {} for v in range(1, t.vertex_count + 1)}
    for u, v, w in t.edges:
        adj[u][v] = w
        adj[v][u] = w
    return adj


def canonical_transform(t: WeightedTree) -> WeightedTree:
    """Drop non-anchor leaves, then merge through non-anchor degree-2 vertices.

    Anchor-pair path lengths are preserved and the operation is idempotent;
    the result has no non-anchor vertex of degree two or less.
    """
    return _freeze(_canonical_adj(weighted_adjacency(t), t.anchor_count), t.anchor_count)


# -- independent BFS ---------------------------------------------------------

def bfs_rows(vertex_count, edges, sources):
    """Per source, its distances to vertices 0..vertex_count (slot 0 unused)."""
    adj = [[] for _ in range(vertex_count + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for source in sources:
        dist = [INF] * (vertex_count + 1)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def bfs_distances(vertex_count, edges, source):
    return bfs_rows(vertex_count, edges, (source,))[0]


def anchor_metric(g: SimpleGraph):
    """The anchor rows of g, by the standalone BFS, as a tuple of tuples."""
    n = g.anchor_count
    rows = bfs_rows(g.vertex_count, g.edges, range(1, n + 1))
    return tuple(tuple(row[1 : n + 1]) for row in rows)


def gadget_matrix_oracle(g: SimpleGraph) -> DistanceMatrix:
    """The gadget matrix of a connected source graph, by a breadth-first
    search of the whole gadget graph (``bfs_apsp``) rather than the closed
    form ``reduce`` builds it by."""
    nc = g.vertex_count
    nxt = nc + 1
    gadget_edges: list[tuple[int, int]] = []
    for u, v in sorted(g.edges):
        a, b = nxt, nxt + 1
        nxt += 2
        gadget_edges.extend([(u, a), (a, b), (v, b)])
    for u in range(1, nc + 1):
        for v in range(u + 1, nc + 1):
            if (u, v) not in g.edges:
                mid = nxt
                nxt += 1
                gadget_edges.extend([(u, mid), (v, mid)])
    ng = nxt - 1
    gadget = SimpleGraph(ng, ng, frozenset(gadget_edges))
    gd = bfs_apsp(gadget).entries
    rows = [
        tuple(gd[i]) + (2 if i < nc else 3,) for i in range(ng)
    ]
    rows.append(tuple(2 if i < nc else 3 for i in range(ng)) + (0,))
    return DistanceMatrix(tuple(rows))


def first_verified_assignment(d: DistanceMatrix, k: int):
    """The graph of the first candidate-edge mask, in increasing order, that
    ``verify_realisation`` accepts for k extra vertices; None if none does.

    ``solve_exact`` checks its masks by one BFS per anchor instead, so this
    holds that check against the verifier.
    """
    free = d.n * k + k * (k - 1) // 2
    unit = unit_graph(d)
    for mask in range(1 << free):
        g = _assignment_graph(unit, [mask >> b & 1 for b in range(free)], k)
        if verify_realisation(g, d):
            return g
    return None


def graph_realises(g: SimpleGraph, rows) -> bool:
    """Standalone re-verification of anchor distances against a matrix."""
    n = len(rows)
    if g.anchor_count != n:
        return False
    for i in range(1, n + 1):
        dist = bfs_distances(g.vertex_count, g.edges, i)
        for j in range(1, n + 1):
            if dist[j] != rows[i - 1][j - 1]:
                return False
    return True


# -- independent weighted APSP (Dijkstra) -------------------------------------

def dijkstra_apsp(n, weighted_edges):
    adj = [[] for _ in range(n + 1)]
    for u, v, w in weighted_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = []
    for s in range(1, n + 1):
        dist = [INF] * (n + 1)
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, w in adj[u]:
                alt = du + w
                if alt < dist[v]:
                    dist[v] = alt
                    heapq.heappush(heap, (alt, v))
        rows.append(tuple(dist[1:]))
    return tuple(rows)


def skeleton_closure_oracle(rows, q):
    """D^(q) computed with Dijkstra over the weighted skeleton edges."""
    n = len(rows)
    edges = [
        (i + 1, j + 1, rows[i][j])
        for i in range(n)
        for j in range(i + 1, n)
        if rows[i][j] <= q
    ]
    return dijkstra_apsp(n, edges)


def primitive_partners_oracle(rows) -> list[list[int]]:
    """Each row's primitive partners, 0-based and ascending, by definition:
    j is one when no third index w has D_iw + D_wj = D_ij."""
    n = len(rows)
    return [
        [
            j for j in range(n)
            if j != i and not any(
                rows[i][w] + rows[w][j] == rows[i][j] for w in range(n) if w not in (i, j)
            )
        ]
        for i in range(n)
    ]


def weighted_links(rows, partners) -> dict[int, dict[int, list[int]]]:
    """The links of ``graph._certifies`` joining each row to its partners
    (0-based lists, as ``primitive_partners_oracle`` gives them), each
    weighted by its entry."""
    return {
        i: {w: [j + 1 for j in mine if row[j] == w] for w in sorted({row[j] for j in mine})}
        for i, (row, mine) in enumerate(zip(rows, partners), 1)
    }


def q_zero_oracle(rows) -> int:
    n = len(rows)
    if n == 1:
        return 1
    target = tuple(tuple(r) for r in rows)
    m = max(max(r) for r in rows)
    for q in range(1, m + 1):
        if skeleton_closure_oracle(rows, q) == target:
            return q
    raise AssertionError("skeleton closure never reached the matrix")


# -- exhaustive 2-SAT oracle ---------------------------------------------------

def _variable_patterns(v):
    width = 1 << v
    pats = []
    for i in range(v):
        half = 1 << i
        rep = ((1 << half) - 1) << half
        length = half * 2
        while length < width:
            rep |= rep << length
            length <<= 1
        pats.append(rep)
    return pats


def model_bitmap(inst: TwoSatInstance) -> int:
    """Bit a is set iff assignment a satisfies the instance.

    Assignment a maps variable i+1 to bool(a >> i & 1).
    """
    v = inst.variable_count
    full = (1 << (1 << v)) - 1
    pats = _variable_patterns(v)
    sat = full
    for a, b in inst.clauses:
        la = pats[abs(a) - 1] ^ (full if a < 0 else 0)
        lb = pats[abs(b) - 1] ^ (full if b < 0 else 0)
        sat &= la | lb
        if not sat:
            break
    return sat


def implication_masks(inst: TwoSatInstance) -> list[int]:
    """The implication graph of a clause list as successor bitmasks.

    Node v - 1 is -x_v and node V + v - 1 is x_v, for V variables; clause
    (a, b) adds the arcs -a -> b and -b -> a.
    """
    v = inst.variable_count

    def node(lit):
        return abs(lit) - 1 + (v if lit > 0 else 0)

    out = [0] * (2 * v)
    for a, b in inst.clauses:
        out[node(-a)] |= 1 << node(b)
        out[node(-b)] |= 1 << node(a)
    return out


def kosaraju_oracle(out: list[int]) -> tuple[bool, ...] | None:
    """A model of a 2-CNF formula given by its implication graph, or None,
    by Kosaraju's algorithm over every node; the library's
    ``solve_implications`` searches only the literals of live variables.

    Node v - 1 is the literal -v and node len(out) // 2 + v - 1 is v; bit u
    of ``out[w]`` is the edge w -> u.  Such a graph is skew-symmetric
    (w -> u iff -u -> -w), so Kosaraju's reverse pass reads the predecessors
    of w as the negations of the successors of -w and stores none.
    """
    size = len(out)
    half = size // 2
    low = (1 << half) - 1

    def negate(mask: int) -> int:
        return mask >> half | (mask & low) << half

    def searches(roots, successors):
        # Per root not reached before, its search's nodes in finishing order.
        unvisited = (1 << size) - 1
        for root in roots:
            if unvisited >> root & 1:
                unvisited ^= 1 << root
                stack, done = [root], []
                while stack:
                    nxt = successors(stack[-1]) & unvisited
                    if nxt:
                        bit = nxt & -nxt
                        unvisited ^= bit
                        stack.append(bit.bit_length() - 1)
                    else:
                        done.append(stack.pop())
                yield done

    # Roots go variable by variable, -v before v; the model depends on this
    # order, and the graphs the deciders write out depend on the model.
    roots = (w for v in range(half) for w in (v, half + v))
    finished = [w for done in searches(roots, out.__getitem__) for w in done]
    # The reverse searches find the components sources first; x_v is true
    # when the component of -x_v came earlier.
    seen = true = 0
    for done in searches(reversed(finished), lambda w: negate(out[(w + half) % size])):
        component = sum(1 << w for w in done)
        if component & component >> half:
            return None
        true |= component >> half & seen
        seen |= component
    return tuple(bool(true >> v & 1) for v in range(half))


def brute_satisfiable(inst: TwoSatInstance) -> bool:
    return model_bitmap(inst) != 0


def enumerate_models(inst: TwoSatInstance):
    bitmap = model_bitmap(inst)
    v = inst.variable_count
    while bitmap:
        low = bitmap & -bitmap
        a = low.bit_length() - 1
        yield tuple(bool(a >> i & 1) for i in range(v))
        bitmap ^= low


def check_assignment(inst: TwoSatInstance, assignment) -> bool:
    """True iff every clause has a true literal under the assignment."""
    if len(assignment) != inst.variable_count:
        raise ValueError("assignment length does not match variable count")

    def truth(lit: int) -> bool:
        return assignment[abs(lit) - 1] == (lit > 0)

    return all(truth(a) or truth(b) for a, b in inst.clauses)


# -- labelled trees via sequence decoding -------------------------------------

def decode_tree(seq, m):
    """Edges of the labelled tree on [m] encoded by a length m-2 sequence."""
    degree = [1] * (m + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, m + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def all_labelled_trees(m):
    if m == 1:
        yield []
        return
    for seq in product(range(1, m + 1), repeat=m - 2):
        yield decode_tree(list(seq), m)


# -- anchor-fixing tree isomorphism -------------------------------------------

def tree_canonical_form(g: SimpleGraph) -> str:
    """Canonical encoding; equal forms mean anchor-fixing isomorphic trees."""
    adj = g.adjacency()
    n = g.vertex_count
    if n == 1:
        return "(1|)"

    degree = [0] + [len(adj[v]) for v in range(1, n + 1)]
    alive = set(range(1, n + 1))
    layer = [v for v in alive if degree[v] == 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in adj[v]:
                if u in alive:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    centres = sorted(alive)

    def enc(v, parent):
        kids = sorted(enc(u, v) for u in adj[v] if u != parent)
        label = str(v) if v <= g.anchor_count else "*"
        return "(" + label + "|" + ",".join(kids) + ")"

    if len(centres) == 1:
        return enc(centres[0], 0)
    a, b = centres
    return "[" + ",".join(sorted((enc(a, b), enc(b, a)))) + "]"


def trees_isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    return (
        a.anchor_count == b.anchor_count
        and a.vertex_count == b.vertex_count
        and tree_canonical_form(a) == tree_canonical_form(b)
    )


# -- small-graph catalogue -----------------------------------------------------

def _connected(n, edges) -> bool:
    if n == 1:
        return True
    return bfs_distances(n, edges, 1)[1 : n + 1].count(INF) == 0


def _graph_canon(n, edges):
    best = None
    for perm in permutations(range(1, n + 1)):
        mapped = tuple(
            sorted(
                (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
                for u, v in edges
            )
        )
        if best is None or mapped < best:
            best = mapped
    return best


def connected_graphs_up_to(max_n):
    """All connected graphs with at most max_n vertices, up to isomorphism."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if not _connected(n, edges):
                continue
            canon = _graph_canon(n, edges)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(SimpleGraph.make(n, n, edges))
    return out


def brute_chromatic(g: SimpleGraph) -> int:
    """Chromatic number by plain product enumeration (independent path)."""
    n = g.vertex_count
    edges = list(g.edges)
    for k in range(1, n + 1):
        for colours in product(range(k), repeat=n):
            if all(colours[u - 1] != colours[v - 1] for u, v in edges):
                return k
    raise AssertionError("unreachable")


# -- seeded instance streams ---------------------------------------------------

def metric_stream(count, max_vertices=7, seed0=1000):
    """Deterministic stream of (matrix, host_vertex_count) pairs.

    Edge density cycles from pure trees to dense graphs so that both
    realisable and unrealisable instances appear at every extra-vertex
    budget.
    """
    densities = (0.0, 0.15, 0.35, 0.6)
    out = []
    seed = seed0
    while len(out) < count:
        rng = random.Random(seed)
        seed += 1
        h = rng.randrange(2, max_vertices + 1)
        n = rng.randrange(2, h + 1)
        g = generate.random_connected_graph(rng, h, densities[seed % len(densities)])
        pool = list(range(1, h + 1))
        chosen = sorted(pool.pop(rng.randrange(len(pool))) for _ in range(n))
        rows = []
        for a in chosen:
            dist = bfs_distances(h, g.edges, a)
            rows.append([int(dist[b]) for b in chosen])
        out.append((dm(rows), h))
    return out


def minimal_tree_stream(count, seed0=5000):
    """Deterministic stream of (tree, anchor_metric) pairs, trees <= 12 vertices."""
    out = []
    seed = seed0
    while len(out) < count:
        rng = random.Random(seed)
        seed += 1
        n = rng.randrange(2, 8)
        t = generate.random_minimal_tree(rng, n)
        if t.vertex_count > 12:
            continue
        rows = []
        for a in range(1, n + 1):
            dist = bfs_distances(t.vertex_count, t.edges, a)
            rows.append([int(dist[b]) for b in range(1, n + 1)])
        out.append((t, dm(rows)))
    return out


def planted_or_tree_rows(seed, n, family, hidden=None):
    """Anchor rows, by the standalone BFS, of a seeded random graph.

    ``"planted"``: a connected graph on n + ``hidden`` vertices (drawn from
    0..2 when None), sparse to dense, with n of them drawn as anchors, so
    at most ``hidden`` extra vertices realise the rows.  ``"tree"``: a
    random minimal tree with n anchors.
    """
    rng = random.Random(seed)
    if family == "tree":
        g = generate.random_minimal_tree(rng, n)
        anchors = list(range(1, n + 1))
    else:
        h = n + (rng.randrange(0, 3) if hidden is None else hidden)
        g = generate.random_connected_graph(rng, h, rng.choice((0.03, 0.1, 0.3)))
        anchors = sorted(rng.sample(range(1, h + 1), n))
    return [
        [int(dist[b]) for b in anchors]
        for dist in (bfs_distances(g.vertex_count, g.edges, a) for a in anchors)
    ]


def bipartite_rows(seed, n, family):
    """Anchor rows, by the standalone BFS, of a seeded bipartite graph.

    Every cycle is even, so these metrics pass the parity condition and
    reach the four-point stage of the tree certificate.  ``"bipartite"``: a
    random tree on n + 0..2 vertices plus random edges across its two
    colour classes, with n vertices drawn as anchors.  ``"tree+edge"``: a
    random minimal tree with n anchors and one edge added between two
    vertices at odd distance >= 3, closing a single even cycle.
    """
    rng = random.Random(seed)
    if family == "tree+edge":
        t = generate.random_minimal_tree(rng, n)
        h, edges = t.vertex_count, set(t.edges)
        dist = [None] + [bfs_distances(h, edges, u) for u in range(1, h + 1)]
        chords = [
            (u, v)
            for u in range(1, h + 1)
            for v in range(u + 1, h + 1)
            if dist[u][v] >= 3 and dist[u][v] % 2
        ]
        if chords:
            edges.add(chords[rng.randrange(len(chords))])
        anchors = list(range(1, n + 1))
    else:
        h = n + rng.randrange(0, 3)
        p = rng.choice((0.05, 0.15, 0.4))
        side = [0, 0]
        edges = set()
        for v in range(2, h + 1):
            u = rng.randrange(1, v)
            edges.add((u, v))
            side.append(1 - side[u])
        edges |= {
            (u, v)
            for u in range(1, h + 1)
            for v in range(u + 1, h + 1)
            if side[u] != side[v] and rng.random() < p
        }
        anchors = sorted(rng.sample(range(1, h + 1), n))
    return [
        [int(dist[b]) for b in anchors]
        for dist in (bfs_distances(h, edges, a) for a in anchors)
    ]


def cycle_edges(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


# Named colourability sources, as (vertex count, edges), for gadget examples.
GADGETS = {
    "C5": (5, cycle_edges(5)),
    "C7": (7, cycle_edges(7)),
    "K4": (4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]),
    "W5": (6, cycle_edges(5) + [(i, 6) for i in range(1, 6)]),
}


def gadget_rows(name):
    """The rows of the gadget matrix of the source graph ``GADGETS[name]``."""
    n_c, edges = GADGETS[name]
    return [list(row) for row in reduce(SimpleGraph.make(n_c, n_c, edges)).matrix.entries]


def structural_matrix(rows):
    """rows as a DistanceMatrix when they pass the structural check, else None."""
    try:
        return check_structure(RawMatrix.from_rows(rows))
    except ValidationError:
        return None


@st.composite
def metric_cases(draw, max_n=40):
    """Planted and tree metrics up to ``max_n`` anchors, and single-entry
    perturbations of them (mirrored or not, so every axiom can break)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    family = draw(st.sampled_from(("planted", "tree")))
    rows = planted_or_tree_rows(draw(st.integers(0, 2**32)), n, family)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        value = max(0, rows[i][j] + draw(st.sampled_from((-2, -1, 1, 2))))
        rows[i][j] = value
        if draw(st.booleans()):
            rows[j][i] = value
    return rows


@st.composite
def non_metric_cases(draw, max_n=10):
    """A :func:`metric_cases` matrix with one axiom broken by construction:
    a mirrored entry raised past a two-step path, an entry raised above its
    mirror, or a diagonal entry set."""
    rows = draw(metric_cases(max_n=max_n))
    n = len(rows)
    ways = ("diagonal", "asymmetric", "triangle")[: min(n, 3)]
    way = draw(st.sampled_from(ways))
    if way == "triangle":
        i, j, w = draw(st.permutations(range(n)))[:3]
        rows[i][j] = rows[j][i] = rows[i][w] + rows[w][j] + draw(st.integers(1, 2))
    elif way == "asymmetric":
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i][j] = rows[j][i] + draw(st.integers(1, 2))
    else:
        i = draw(st.integers(0, n - 1))
        rows[i][i] = draw(st.integers(1, 2))
    return rows


@st.composite
def graph_matrix_cases(draw, max_n=12):
    """A graph with anchors 1..n and a distance matrix it may not realise.

    The matrix is the anchor metric of a connected host graph, exact or with
    one entry moved by one (kept only when it is still a distance matrix).
    The graph is the host itself, the host with up to three edges dropped,
    the host with some anchors cut off from everything, or the host with a
    pendant path of fresh vertices beyond its farthest vertex from anchor 1.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    h = n + draw(st.integers(min_value=0, max_value=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    host = generate.random_connected_graph(rng, h, draw(st.sampled_from((0.0, 0.1, 0.3, 0.6))))
    rows = [[int(dist[b]) for b in range(1, n + 1)]
            for dist in (bfs_distances(h, host.edges, a) for a in range(1, n + 1))]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        moved = [row[:] for row in rows]
        moved[i][j] = moved[j][i] = max(1, rows[i][j] + draw(st.sampled_from((-1, 1))))
        if brute_is_distance_matrix(moved):
            rows = moved
    edges = sorted(host.edges)
    variant = draw(st.sampled_from(("host", "drop", "isolate", "trail")))
    if variant == "drop":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if edges:
                edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif variant == "isolate":
        cut = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
        edges = [(u, v) for u, v in edges if u not in cut and v not in cut]
    elif variant == "trail":
        dist = bfs_distances(h, host.edges, 1)
        far = max(range(1, h + 1), key=lambda v: dist[v])
        tail = draw(st.integers(min_value=1, max_value=3))
        chain = [far] + list(range(h + 1, h + tail + 1))
        edges += zip(chain, chain[1:])
        h += tail
    return SimpleGraph(h, n, frozenset(edges)), rows


@st.composite
def chain_graph_cases(draw, max_n=6):
    """A graph whose extras lie mostly on chains of degree-2 vertices, and
    a matrix that passes the structural check.

    A connected host on n anchors and up to three branch extras keeps each
    edge or subdivides it into a chain of up to 1, 3 or 70 edges; now and
    then one edge becomes a chain past 2**14 edges.  On top come a parallel
    chain beside a host edge, a chain cycle through one vertex, a pendant
    chain that may end in a K4 of extras, and isolated extras; then the
    extras are relabelled at random.  The matrix is the graph's anchor
    metric (entries past 64 or 2**14 need 2- or 4-byte lanes), that metric
    with one mirrored entry moved, which may break the triangle inequality,
    or a random structural matrix; or the graph loses one vertex of a chain.
    """
    n = draw(st.sampled_from(range(1, max_n + 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    host = generate.random_connected_graph(
        rng, n + draw(st.sampled_from(range(4))), draw(st.sampled_from((0.0, 0.3, 0.7)))
    )
    span = draw(st.sampled_from((1, 3, 70)))
    huge = draw(st.sampled_from((False,) * 7 + (True,)))
    fresh = host.vertex_count + 1
    edges, chains = [], []

    def chain(path_ends, length):
        nonlocal fresh
        u, v = path_ends
        path = [u, *range(fresh, fresh + length - 1), v]
        fresh += length - 1
        edges.extend(zip(path, path[1:]))
        if length > 1:
            chains.append(path)

    for i, e in enumerate(sorted(host.edges)):
        chain(e, 2**14 + rng.randint(1, 5) if huge and i == 0 else rng.randint(1, span))
    vertices = range(1, fresh)
    if draw(st.booleans()) and host.edges:
        chain(rng.choice(sorted(host.edges)), rng.randint(2, span + 2))
    if draw(st.booleans()):
        x = rng.choice(vertices)
        chain((x, x), rng.randint(3, span + 3))
    if draw(st.booleans()):
        x, end = rng.choice(vertices), fresh + rng.randint(0, span)
        chain((x, end), end - fresh + 1)
        fresh = end + 1
        if draw(st.booleans()):
            clump = [end, fresh, fresh + 1, fresh + 2]
            fresh += 3
            edges.extend(combinations(clump, 2))
    fresh += draw(st.integers(0, 2))
    size = fresh - 1
    label = list(range(n + 1, size + 1))
    rng.shuffle(label)
    name = dict(zip(range(n + 1, size + 1), label)) | {v: v for v in range(1, n + 1)}
    edges = [(name[u], name[v]) for u, v in edges]
    chains = [[name[v] for v in path] for path in chains]
    rows = [row[1 : n + 1] for row in bfs_rows(size, edges, range(1, n + 1))]
    variant = draw(st.sampled_from(("exact", "moved", "random", "short")))
    if variant == "moved" and n >= 2:
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i][j] = rows[j][i] = max(1, rows[i][j] + draw(st.sampled_from((-2, -1, 1, 2))))
    elif variant == "random":
        top = max(map(max, rows)) + 1
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(1, top)
    elif variant == "short" and chains:
        path = rng.choice(chains)
        cut = path[-2]
        edges = [e for e in edges if cut not in e] + [(path[-3], path[-1])]
    return SimpleGraph.make(size, n, edges), rows
