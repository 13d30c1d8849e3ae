"""Colourability gadgets: encode k-colouring questions as realisability ones.

Given a connected graph, every edge is subdivided twice (a path of length 3)
and every non-adjacent pair is bridged by a path of length 2; one further
matrix row demands distance 2 to every original vertex and 3 to every new
one.  The resulting matrix is realisable with k extra vertices exactly when
the input graph is k-colourable: extra vertices act as colour classes, since
no extra vertex may be adjacent to both endpoints of an original edge.
:func:`reduce` writes the matrix in closed form from the source graph: each
new vertex's distances are the lanewise min over the two originals it
leaves its piece through, so the gadget graph is never searched, and the
matrix holds the ``bytes`` rows it is built from.
"""

from __future__ import annotations

from .graph import _MAX_VERTICES, Realisation, SearchSpaceTooLarge, SimpleGraph
# Nothing here calls bfs_apsp; bench/test_bench.py traces it under this name.
from .graph import _is_connected, bfs_apsp  # noqa: F401
from .matrix import DistanceMatrix, _Value


class DisconnectedInput(ValueError):
    """The colourability input graph must be connected."""


class ImproperColouring(ValueError):
    """Adjacent vertices were assigned the same colour."""


class MalformedRealisation(ValueError):
    """The given graph cannot be a realisation of the gadget matrix."""


class Colouring(_Value):
    """Colour per vertex, 1-based: vertex i has colour ``colours[i - 1]``."""

    k: int
    colours: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        for c in self.colours:
            if not 1 <= c <= self.k:
                raise ValueError(f"colour {c} out of range 1..{self.k}")


class GadgetInstance(_Value):
    """A reduced instance: source graph, gadget graph, and target matrix.

    Gadget vertices 1..n_c are the source vertices; subdivision vertices
    come next (two per source edge, edges in lexicographic order), then one
    middle vertex per non-adjacent source pair (also lexicographic).  The
    matrix has dimension n = n_g + 1.
    """

    source: SimpleGraph
    gadget: SimpleGraph
    matrix: DistanceMatrix
    subdivision_map: dict[tuple[int, int], tuple[int, int]]
    nonadjacent_map: dict[tuple[int, int], int]

    @property
    def n_c(self) -> int:
        return self.source.vertex_count

    @property
    def n_g(self) -> int:
        return self.gadget.vertex_count

    @property
    def n(self) -> int:
        return self.matrix.n


# Byte h << 4 | l, the entries of a new vertex's two exits p < q at one
# column, to min(o_p + h, o_q + l), one table per exit offsets (o_p, o_q).
_MIN_THROUGH = {
    o: bytes(min(o[0] + (b >> 4), o[1] + (b & 15)) for b in range(256))
    for o in ((1, 2), (2, 1), (1, 1))
}


def _through_exits(rows: list[bytes], pieces) -> list[bytes]:
    """Per piece (p, q, table, ...), the lanewise min(o_p + rows[p - 1],
    o_q + rows[q - 1]) of rows whose entries are below 16."""
    width = len(rows[0])
    lo = [int.from_bytes(r, "little") for r in rows]
    hi = [x << 4 for x in lo]
    return [
        (hi[p - 1] | lo[q - 1]).to_bytes(width, "little").translate(table)
        for p, q, table, _, _ in pieces
    ]


def reduce(g: SimpleGraph) -> GadgetInstance:
    """Build the gadget graph and its distance matrix for an input graph.

    The matrix follows from the source graph in closed form, and it is a
    metric by construction, so it is not scanned.  Its first n_g rows and
    columns are the gadget graph's distances, finite as the gadget of a
    connected graph is connected.  Originals are never adjacent, and their
    one possible common neighbour is the middle vertex of a non-adjacent
    pair, so two originals are at 2 when non-adjacent and at 3, along their
    subdivided edge, when adjacent.  A new vertex t leaves its piece only
    through two originals p < q, at offsets o_p and o_q (1 and 2 on a
    subdivided edge, 1 and 1 for a middle vertex), so D_ts = min(o_p +
    D_ps, o_q + D_qs) for every s but t itself and t's sibling on the same
    edge, at 1.  That min builds the matrix: first each new vertex's column
    over the originals, then each new vertex's row from its exits' full
    rows, lane by lane through one ``bytes.translate`` of the two rows
    packed as nibbles.  The hub column needs no patch, as min(o_p, o_q) + 2
    is 3.  Hence D_uv is at most 3 between originals, 4 from an original to
    a new vertex and 5 between new vertices: at most the sum of the hub
    entries of u and v, 2 for an original and 3 for a new vertex.  And a
    hub entry is at most the other (at least 2) plus D_uv (at least 1), so
    every triangle through the hub holds too.
    """
    if g.anchor_count != g.vertex_count:
        raise ValueError("every vertex of the input graph must be colourable")
    # A connected graph has at least vertex_count - 1 edges; checking that
    # first keeps a huge declared vertex count from sizing the adjacency.
    if len(g.edges) < g.vertex_count - 1 or not _is_connected(g.adjacency()):
        raise DisconnectedInput("input graph must be connected")
    nc = g.vertex_count
    nxt = nc + 1
    gadget_edges: list[tuple[int, int]] = []
    subdivision: dict[tuple[int, int], tuple[int, int]] = {}
    nonadjacent: dict[tuple[int, int], int] = {}
    # Per new vertex, in index order: its exits p < q, the table of their
    # offsets, and where its own row holds 0 at itself and 1 at its sibling.
    pieces: list[tuple[int, int, bytes, int, bytes]] = []
    block = [bytearray(b"\2" * nc) for _ in range(nc)]
    for u, v in sorted(g.edges):
        a, b = nxt, nxt + 1
        nxt += 2
        gadget_edges.extend([(u, a), (a, b), (v, b)])
        subdivision[(u, v)] = (a, b)
        pieces += (u, v, _MIN_THROUGH[1, 2], a, b"\0\1"), (u, v, _MIN_THROUGH[2, 1], a, b"\1\0")
        block[u - 1][v - 1] = block[v - 1][u - 1] = 3
    for u in range(1, nc + 1):
        block[u - 1][u - 1] = 0
        for v in range(u + 1, nc + 1):
            if (u, v) not in g.edges:
                mid = nxt
                nxt += 1
                gadget_edges.extend([(u, mid), (v, mid)])
                nonadjacent[(u, v)] = mid
                pieces.append((u, v, _MIN_THROUGH[1, 1], mid, b"\0"))
    ng = nxt - 1
    gadget = SimpleGraph(ng, ng, frozenset(gadget_edges))
    # The originals' columns of every new vertex, then the full rows.
    columns = b"".join(_through_exits(block, pieces))
    rows = [bytes(block[x]) + columns[x::nc] + b"\2" for x in range(nc)]
    for row, (_, _, _, at, own) in zip(_through_exits(rows, pieces), pieces):
        rows.append(row[: at - 1] + own + row[at - 1 + len(own) :])
    rows.append(b"\2" * nc + b"\3" * (ng - nc) + b"\0")
    matrix = DistanceMatrix(tuple(rows))
    return GadgetInstance(g, gadget, matrix, subdivision, nonadjacent)


def realise_from_colouring(inst: GadgetInstance, c: Colouring) -> Realisation:
    """Realisation of the gadget matrix on n + k vertices from a colouring.

    Extra vertex n + j holds colour class j: it is adjacent to vertex n and
    to exactly the original vertices coloured j.  Properness of the
    colouring is what keeps original edges at distance 3.  The edges are
    written directly, so no pair of extras is ever listed.  A graph of
    more than ``graph._MAX_VERTICES`` vertices raises
    ``SearchSpaceTooLarge`` before any edge is built.
    """
    nc = inst.n_c
    colours = c.colours
    if len(colours) != nc:
        raise ValueError("colouring size does not match the source graph")
    for u, v in inst.source.edges:
        if colours[u - 1] == colours[v - 1]:
            raise ImproperColouring(f"vertices {u} and {v} share colour")
    n = inst.n
    if n + c.k > _MAX_VERTICES:
        raise SearchSpaceTooLarge(f"{n + c.k} vertices exceeds the guard of {_MAX_VERTICES}")
    edges = {(n, n + j) for j in range(1, c.k + 1)} | {(i, n + j) for i, j in enumerate(colours, 1)}
    return Realisation(SimpleGraph(n + c.k, n, inst.gadget.edges | edges), inst.matrix)


def extract_colouring(inst: GadgetInstance, r: Realisation, k: int) -> Colouring:
    """Read a proper k-colouring back off a realisation of a gadget matrix.

    Each original vertex takes the colour of the lowest-indexed extra vertex
    adjacent to it.  In a genuine realisation every original vertex has such
    a neighbour (its distance-2 requirement to vertex n forces one) and no
    extra vertex can serve both ends of an original edge.  The neighbours
    are read off the edges, since the header may declare far more vertices.
    """
    n = inst.n
    g = r.graph
    if g.anchor_count != n or g.vertex_count > n + k:
        raise ValueError("realisation does not fit the gadget instance")
    # Edges in falling order leave each vertex's lowest extra neighbour last.
    lowest = {u: v for u, v in sorted(g.edges, reverse=True) if v > n}
    colours = []
    for i in range(1, inst.n_c + 1):
        if i not in lowest:
            raise MalformedRealisation(
                f"original vertex {i} has no extra-vertex neighbour"
            )
        colours.append(lowest[i] - n)
    for u, v in inst.source.edges:
        if colours[u - 1] == colours[v - 1]:
            raise MalformedRealisation(
                f"adjacent vertices {u} and {v} would share a colour"
            )
    return Colouring(k, tuple(colours))


def proper_colouring(g: SimpleGraph, k: int) -> Colouring | None:
    """A proper k-colouring by backtracking, or None.

    Vertex 1 is pinned to colour 1, which prunes colour permutations.
    """
    n = g.vertex_count
    adj = g.adjacency()
    assign = [0] * (n + 1)

    def bt(v: int) -> bool:
        if v > n:
            return True
        limit = 1 if v == 1 else k
        for col in range(1, limit + 1):
            if all(assign[u] != col for u in adj[v]):
                assign[v] = col
                if bt(v + 1):
                    return True
                assign[v] = 0
        return False

    if not bt(1):
        return None
    return Colouring(k, tuple(assign[1:]))
