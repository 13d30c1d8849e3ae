"""Seeded instance generators for experiments and cross-checking.

Everything draws from ``random.Random`` (the Mersenne Twister), using only
``randrange``/``random`` so that a fixed seed reproduces identical output
across platforms and Python versions.
"""

from __future__ import annotations

import random

from .graph import SimpleGraph, _bfs, anchor_distances
from .matrix import DistanceMatrix


def _sample(rng: random.Random, items: list[int], count: int) -> list[int]:
    pool = list(items)
    picked = []
    for _ in range(count):
        picked.append(pool.pop(rng.randrange(len(pool))))
    return picked


def random_connected_graph(
    rng: random.Random, vertices: int, edge_probability: float = 0.35
) -> SimpleGraph:
    """Random spanning tree plus independent extra edges."""
    if vertices < 1:
        raise ValueError("need at least one vertex")
    edges = set()
    for v in range(2, vertices + 1):
        edges.add((rng.randrange(1, v), v))
    for u in range(1, vertices + 1):
        for v in range(u + 1, vertices + 1):
            if (u, v) not in edges and rng.random() < edge_probability:
                edges.add((u, v))
    return SimpleGraph(vertices, vertices, frozenset(edges))


def random_metric(seed: int, vertices: int, anchors: int) -> DistanceMatrix:
    """Anchor metric of a random connected graph.

    Samples a connected graph, picks ``anchors`` of its vertices, and emits
    their pairwise hop distances.  They are a metric by construction, so
    the matrix is not scanned: hop distances between distinct vertices of a
    connected graph are finite, positive and symmetric, and a shortest a-w
    path followed by a shortest w-b path is an a-b walk.
    """
    if not 1 <= anchors <= vertices:
        raise ValueError("anchors must be between 1 and vertices")
    rng = random.Random(seed)
    g = random_connected_graph(rng, vertices)
    chosen = sorted(_sample(rng, list(range(1, vertices + 1)), anchors))
    adj = g.adjacency()
    rows = (_bfs(adj, a) for a in chosen)
    return DistanceMatrix(tuple(tuple(row[b] for b in chosen) for row in rows))


def random_minimal_tree(rng: random.Random, anchors: int) -> SimpleGraph:
    """Random unweighted tree whose minimal realisation is itself.

    All leaves are anchors and every Steiner vertex has degree at least 3,
    so the tree is the unique minimal tree realisation of its own anchor
    metric.  Anchors are relabelled 1..anchors, Steiner vertices after.
    """
    n = anchors
    if n < 1:
        raise ValueError("need at least one anchor")
    if n <= 2:
        return SimpleGraph(n, n, frozenset({(1, 2)} if n == 2 else set()))
    for _ in range(10000):
        steiner_count = rng.randrange(0, n - 1)
        m = n + steiner_count
        edges = [(rng.randrange(1, v), v) for v in range(2, m + 1)]
        degree = [0] * (m + 1)
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        candidates = [v for v in range(1, m + 1) if degree[v] >= 3]
        if len(candidates) < steiner_count:
            continue
        steiner = set(_sample(rng, candidates, steiner_count))
        order = [v for v in range(1, m + 1) if v not in steiner] + sorted(steiner)
        rename = {old: new for new, old in enumerate(order, 1)}
        return SimpleGraph.make(
            m, n, [(rename[u], rename[v]) for u, v in edges]
        )
    # Overwhelmingly unlikely; a star is always a valid fallback.
    return SimpleGraph(
        n + 1, n, frozenset((i, n + 1) for i in range(1, n + 1))
    )


def random_tree_metric(seed: int, anchors: int) -> DistanceMatrix:
    """Anchor metric of a random minimal tree: always tree-realisable.

    The anchors are distinct vertices of a connected graph, so their hop
    distances are a metric by construction, as in :func:`random_metric`.
    """
    t = random_minimal_tree(random.Random(seed), anchors)
    return DistanceMatrix(anchor_distances(t).entries)
