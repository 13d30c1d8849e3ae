"""Correctness oracles for the benchmark, independent of the library.

Nothing here imports ``combdmr``: graph files are parsed by a separate
reader, distances come from a standalone BFS, and 2-colourability is a
BFS parity check.  Each ``check_*`` function takes what one instance's CLI
pipeline printed and wrote, and returns ``None`` when the outputs are
correct or a one-line reason when they are not.
"""

from __future__ import annotations

from collections import deque


def summary(stdout: str) -> dict[str, str]:
    """Fields of the CLI's last line ``verdict=.. vertices=.. extra=..``."""
    lines = stdout.splitlines()
    if not lines:
        return {}
    fields = {}
    for tok in lines[-1].split():
        key, sep, value = tok.partition("=")
        if sep:
            fields[key] = value
    return fields


def read_graph(text: str) -> tuple[int, int, list[tuple[int, int]]]:
    """(vertex_count, anchor_count, edges) of a graph file."""
    lines = [s.strip() for s in text.splitlines()]
    lines = [s for s in lines if s and not s.startswith("#")]
    head = lines[0].split()
    if len(head) != 3 or head[0] != "graph":
        raise ValueError(f"bad graph header {lines[0]!r}")
    vc, ac = int(head[1]), int(head[2])
    edges = []
    for s in lines[1:]:
        u, v = (int(x) for x in s.split())
        if not 1 <= u < v <= vc:
            raise ValueError(f"bad edge {u} {v}")
        edges.append((u, v))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge")
    return vc, ac, edges


def anchor_rows(vertex_count: int, anchors: int, edges) -> list[list[float]]:
    """Hop distances from each anchor 1..anchors to each anchor, by BFS."""
    adj: list[list[int]] = [[] for _ in range(vertex_count + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in range(1, anchors + 1):
        dist = [float("inf")] * (vertex_count + 1)
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] == float("inf"):
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist[1 : anchors + 1])
    return rows


def realises(graph_text: str, matrix: list[list[int]]) -> str | None:
    """None when the graph's anchors reproduce the matrix exactly."""
    try:
        vc, ac, edges = read_graph(graph_text)
    except (ValueError, IndexError) as exc:
        return f"unreadable graph: {exc}"
    if ac != len(matrix):
        return f"graph has {ac} anchors, matrix has dimension {len(matrix)}"
    rows = anchor_rows(vc, ac, edges)
    for i, (got, want) in enumerate(zip(rows, matrix), 1):
        if got != list(want):
            return f"anchor {i}: BFS distances differ from the matrix row"
    return None


def two_colouring(n: int, edges) -> list[int] | None:
    """Colours 1/2 for vertices 1..n by BFS parity, or None if not bipartite."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [0] * (n + 1)
    for s in range(1, n + 1):
        if colour[s]:
            continue
        colour[s] = 1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not colour[w]:
                    colour[w] = 3 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return None
    return colour[1:]


def _expect(step: str, result, rc: int, verdict: str) -> str | None:
    """Check one step's (exit code, stdout) pair against the expectation."""
    got_rc, stdout = result
    if got_rc != rc:
        return f"{step}: exit code {got_rc}, expected {rc}"
    got = summary(stdout).get("verdict")
    if got != verdict:
        return f"{step}: verdict {got}, expected {verdict}"
    return None


def check_planted(steps: dict, out_graph: str | None, matrix, max_extra: int):
    """``solve --k 2`` on a planted metric: YES, at most 2 extras, realises."""
    bad = _expect("solve", steps["solve"], 0, "YES")
    if bad:
        return bad
    fields = summary(steps["solve"][1])
    extra, vertices = int(fields["extra"]), int(fields["vertices"])
    if extra > max_extra:
        return f"solve: extra={extra} exceeds the planted {max_extra}"
    if vertices != len(matrix) + extra:
        return f"solve: vertices={vertices} but n + extra = {len(matrix) + extra}"
    if out_graph is None:
        return "solve: no output graph written"
    if read_graph(out_graph)[0] != vertices:
        return "solve: output graph vertex count differs from the summary"
    return realises(out_graph, matrix)


def check_gadget(steps: dict, colouring: str | None, n_c: int, edges, n: int):
    """reduce → solve --k 2 → extract-colouring against BFS 2-colourability."""
    bad = _expect("reduce", steps["reduce"], 0, "YES")
    if bad:
        return bad
    if summary(steps["reduce"][1]).get("vertices") != str(n):
        return f"reduce: matrix dimension is not {n}"
    if two_colouring(n_c, edges) is None:
        if "extract-colouring" in steps:
            return "extract-colouring ran on a NO instance"
        return _expect("solve", steps["solve"], 1, "NO")
    bad = _expect("solve", steps["solve"], 0, "YES") or _expect(
        "extract-colouring", steps.get("extract-colouring", (None, "")), 0, "YES"
    )
    if bad:
        return bad
    if colouring is None:
        return "extract-colouring: no colouring written"
    assigned = {}
    for line in colouring.split("\n"):
        if line.strip():
            v, c = (int(x) for x in line.split())
            assigned[v] = c
    if sorted(assigned) != list(range(1, n_c + 1)):
        return "extract-colouring: colouring does not cover the source vertices"
    if any(c not in (1, 2) for c in assigned.values()):
        return "extract-colouring: colour outside 1..2"
    for u, v in edges:
        if assigned[u] == assigned[v]:
            return f"extract-colouring: edge ({u}, {v}) is monochromatic"
    return None


def check_tree(steps: dict, out_graph: str | None, matrix, tree_vertices: int):
    """``tree --certify`` then ``bounds`` on the metric of a minimal tree."""
    bad = _expect("tree", steps["tree"], 0, "YES")
    if bad:
        return bad
    if "zareckii=holds" not in steps["tree"][1].splitlines():
        return "tree: certificate line does not read holds"
    if out_graph is None:
        return "tree: no output graph written"
    try:
        vc = read_graph(out_graph)[0]
    except (ValueError, IndexError) as exc:
        return f"tree: unreadable graph: {exc}"
    if vc != tree_vertices:
        return f"tree: {vc} vertices, the minimal tree has {tree_vertices}"
    bad = realises(out_graph, matrix) or _expect("bounds", steps["bounds"], 0, "YES")
    if bad:
        return bad
    lower = [s for s in steps["bounds"][1].splitlines() if s.startswith("lower=")]
    if len(lower) != 1 or int(lower[0][6:]) > tree_vertices:
        return "bounds: lower bound missing or above the minimal tree's size"
    return None
