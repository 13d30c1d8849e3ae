#!/usr/bin/env python3
"""Print a digest of the CLI's behaviour on a fixed, seeded set of argvs.

Every argv runs through ``combdmr.cli.main`` in this one process: each
subcommand on the matrices and graphs of ``tests/data`` and on a few small
planted metrics (0-2 hidden vertices), minimal-tree metrics and
colourability gadgets, all drawn through ``combdmr.generate``;
``verify`` on seeded host graphs changed in the ways that steer the
realisation check; ``bounds`` on matrix files that the parser reads in
unusual forms or refuses, one for each of its messages; and ``validate``,
``bounds`` and ``solve --k 2`` on small line metrics whose largest entries
sit at the edges of the triangle scan's lane widths; and ``solve --k 2
--out`` on the two ``tests/data/ladder/dead_root_*`` matrices.
For each argv one line gives a sha256 over the exit code, stdout and every
file the run wrote, then the argv, with the temporary directory shown as
``<tmp>`` in both; a line with the sha256 of all those lines comes last.  Two
checkouts that print the same lines behave byte-identically on the set, so
running the script at a parent commit and at a change is a byte check of
the change.  The temporary directory is removed afterwards.

Usage:
    PYTHONPATH=src python3 scripts/cli_digest.py
"""

import contextlib
import hashlib
import io
import random
import shutil
import sys
import tempfile
from pathlib import Path

from combdmr import cli, generate, reduction
from combdmr.graph import SimpleGraph, anchor_distances
from combdmr.matrix import RawMatrix
from combdmr.textio import emit_colouring, emit_graph, emit_matrix, parse_graph

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUTPUT_FLAGS = ("--out", "--dot", "--dump-cnf", "--weighted-out")
# Matrix files the parser accepts in unusual forms, or refuses with each of
# its messages; the mixed rows pin which bad token a line names first.
# "large", a star of 15 legs of 150 around anchor 1, mixes a row of few
# values that fit in a byte with rows that reach 300, and also runs every
# subcommand of the seeded matrices.
ODD_MATRICES = {
    "large": "".join(
        " ".join(str(0 if i == j else 150 if 0 in (i, j) else 300) for j in range(16)) + "\n"
        for i in range(16)
    ),
    "tokens": "0 +1 0_2\n001 0 1\n2 1 0\n",
    "word": "# comment\n\n0 1\n1 x\n",
    "negative": "0 -1\n-1 0\n",
    "wide": "0 4294967296\n4294967296 0\n",
    "count": "0 1\n1 0 0\n",
    "empty": "",
    "comments": "# nothing\n\n",
    "negative-word": "0 -1 x\n1 0 1\n1 1 0\n",
    "word-negative": "0 x -1\n1 0 1\n1 1 0\n",
    "wide-negative": "0 4294967296 -5\n1 0 1\n1 1 0\n",
    # Single-digit matrices with one row that the byte route must leave to
    # int, and a row of 9s beside rows that hold a 10.
    "tab": "0 1 2 3\n1 0\t1 2\n2 1 0 1\n3 2 1 0\n",
    "spaces": "0 1 2 3\n1 0  1 2\n2 1 0 1\n3 2 1 0\n",
    "superscript": "0 1 2 ³\n1 0 1 2\n2 1 0 1\n³ 2 1 0\n",
    "arabic": "0 1 2 ٣\n1 0 1 2\n2 1 0 1\n٣ 2 1 0\n",
    "nines-ten": "0 9 9\n9 0 10\n9 10 0\n",
}

# Largest entries at the edges of the triangle scan's 8-, 16-, 32- and
# 64-bit lanes, which must hold twice the largest entry.
LANE_EDGES = (63, 64, 16383, 16384, 2**32 - 1)


def line_metric(top, variant):
    """Rows of five points at 0, 1, 2, top - 1 and top on a line; "low"
    lowers D_14 to top - 3 (witness (1, 5, 4)), "high" raises D_34 to top
    (witness (3, 4, 2))."""
    p = (0, 1, 2, top - 1, top)
    rows = [[abs(a - b) for b in p] for a in p]
    if variant == "low":
        rows[0][3] = rows[3][0] = top - 3
    elif variant == "high":
        rows[2][3] = rows[3][2] = top
    return RawMatrix.from_rows(rows)


def planted(seed, anchors, hidden):
    """Anchor metric of a random tree, or for odd seeds a sparse random
    connected graph, whose first ``hidden`` vertices, the ones nearest the
    spanning tree's root, are hidden."""
    m = anchors + hidden
    g = generate.random_connected_graph(random.Random(seed), m, seed % 2 * 0.2)
    label = {v: v - hidden if v > hidden else anchors + v for v in range(1, m + 1)}
    g = SimpleGraph.make(m, anchors, [(label[u], label[v]) for u, v in g.edges])
    return RawMatrix(anchor_distances(g).entries)


def write_inputs(tmp):
    """Copy ``tests/data`` and write the seeded matrices (one of them with 40
    anchors), gadget sources and their 2- and 3-colourings (a dummy line
    where there is none), the odd matrix files and the lane-edge line
    metrics into tmp; returns the matrix and graph paths, the ``verify``
    cases, the odd matrix paths and the line metric paths."""
    shutil.copytree(DATA, tmp / "data")
    mats = sorted(tmp.glob("data/*.mat"))
    for seed in range(10):
        hidden = (0, 1, 2, 2, 2)[seed % 5]
        mats.append(tmp / f"planted{seed}.mat")
        mats[-1].write_text(emit_matrix(planted(seed, 4 + seed % 5, hidden)))
    for seed in range(4):
        mats.append(tmp / f"tree{seed}.mat")
        mats[-1].write_text(emit_matrix(generate.random_tree_metric(seed, 4 + seed)))
    sources = [parse_graph((DATA / "k2.graph").read_text())]
    for seed in range(4):
        sources.append(generate.random_connected_graph(random.Random(seed), 3 + seed % 2, 0.5))
        mats.append(tmp / f"gadget{seed}.mat")
        mats[-1].write_text(emit_matrix(reduction.reduce(sources[-1]).matrix))
    graphs = []
    for i, g in enumerate(sources):
        graphs.append(tmp / f"g{i}.graph")
        graphs[-1].write_text(emit_graph(g))
        for k in (2, 3):
            c = reduction.proper_colouring(g, k)
            (tmp / f"g{i}c{k}.col").write_text(emit_colouring(c) if c else "1 1\n")
    # Dense enough that every row has few distinct values.
    mats.append(tmp / "dense.mat")
    mats[-1].write_text(emit_matrix(planted(11, 40, 1)))
    odd = []
    for name, text in ODD_MATRICES.items():
        odd.append(tmp / f"{name}.mat")
        odd[-1].write_text(text)
    mats.append(odd[0])
    lines = []
    for top in LANE_EDGES:
        for variant in ("valid", "low", "high"):
            lines.append(tmp / f"line{top}{variant}.mat")
            lines[-1].write_text(emit_matrix(line_metric(top, variant)))
    return (
        [str(m) for m in mats], [str(g) for g in graphs], write_verify_cases(tmp),
        [str(m) for m in odd], [str(m) for m in lines],
    )


def write_verify_cases(tmp):
    """Seeded host graphs on 5-7 vertices, anchors first, their anchor
    matrices, and graphs for ``verify`` to check against them: the host;
    the host with a pendant trail that outgrows the largest entry; the host
    with its last anchor cut off; and the host under a header that declares
    more vertices than its largest edge endpoint.  Returns (graph, matrix)
    path pairs."""
    pairs = []
    for seed in range(3):
        host = generate.random_connected_graph(random.Random(100 + seed), 5 + seed, 0.3)
        n = 3 + seed
        d = anchor_distances(SimpleGraph(host.vertex_count, n, host.edges))
        mat = tmp / f"host{seed}.mat"
        mat.write_text(emit_matrix(RawMatrix(d.entries)))
        m, top = host.vertex_count, max(map(max, d.entries))
        trail = [(1, m + 1)] + [(v, v + 1) for v in range(m + 1, m + top + 2)]
        variants = {
            "host": (m, host.edges),
            "trail": (m + top + 2, host.edges | set(trail)),
            "cut": (m, {e for e in host.edges if n not in e}),
            "header": (m + 1, host.edges),
        }
        for name, (size, edges) in variants.items():
            pairs.append((tmp / f"host{seed}{name}.graph", mat))
            pairs[-1][0].write_text(emit_graph(SimpleGraph(size, n, frozenset(edges))))
    return [(str(g), str(m)) for g, m in pairs]


def argvs(tmp, mats, graphs, verify_cases, odd, lines):
    """The fixed argv list; outputs of earlier argvs feed later ones."""
    out = []
    for i, m in enumerate(mats):
        o = f"{tmp}/m{i}"
        out += [["validate", m], ["bounds", m]]
        for k in "012":
            out.append(["solve", "--k", k, m, "--out", f"{o}k{k}.graph",
                        "--dot", f"{o}k{k}.dot", "--dump-cnf", f"{o}k{k}.cnf"])
        for k in "12":
            out.append(["solve-exact", "--k", k, "--max-free-edges", "14", m,
                        "--out", f"{o}x{k}.graph", "--dot", f"{o}x{k}.dot"])
        out.append(["tree", m, "--certify", "--out", f"{o}t.graph",
                    "--dot", f"{o}t.dot", "--weighted-out", f"{o}t.w"])
        out += [["tree", m], ["verify", f"{o}k2.graph", m], ["verify", f"{o}t.graph", m]]
    for i, g in enumerate(graphs):
        o = f"{tmp}/g{i}"
        out += [["reduce", g, "--out", f"{o}.mat"], ["gen", "--mode", "reduction", "--input", g]]
        for k in "23":
            out += [
                ["colour-realise", g, f"{o}c{k}.col", "--k", k,
                 "--out", f"{o}r{k}.graph", "--dot", f"{o}r{k}.dot"],
                ["extract-colouring", g, f"{o}r{k}.graph", "--k", k, "--out", f"{o}e{k}.col"],
                ["verify", f"{o}r{k}.graph", f"{o}.mat"],
            ]
    for seed in range(3):
        out.append(["gen", "--mode", "random-metric", "--seed", str(seed),
                    "--vertices", str(6 + seed), "--anchors", str(4 + seed)])
        out.append(["gen", "--mode", "random-tree-metric", "--seed", str(seed),
                    "--anchors", str(5 + seed), "--out", f"{tmp}/gen{seed}.mat"])
    out += [["solve", "--k", "3", mats[0]], ["solve-exact", "--k", "2", mats[0],
            "--max-free-edges", "0"], ["gen", "--mode", "reduction"], ["nonsense"]]
    out += [["verify", g, m] for g, m in verify_cases]
    out += [["bounds", m] for m in odd]
    for m in lines:
        out += [["validate", m], ["bounds", m], ["solve", "--k", "2", m]]
    # Formulas whose first Kosaraju pass reaches live literals from a
    # variable that occurs only negated; the graphs pin that root order.
    for name in ("dead_root_adjacent", "dead_root_phi2"):
        out.append(["solve", "--k", "2", f"{tmp}/data/ladder/{name}.mat",
                    "--out", f"{tmp}/{name}.graph"])
    return out


def run(argv, tmp):
    """sha256 over the exit code, stdout and the files the run wrote.

    Every output flag names a file of its own, so the files a run wrote
    are the ones its output flags name that exist afterwards.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = stdout.getvalue().replace(str(tmp), "<tmp>")
    h = hashlib.sha256(f"{code}\n{text}".encode())
    for flag, path in zip(argv, argv[1:]):
        if flag in OUTPUT_FLAGS and Path(path).exists():
            h.update(f"\n{flag}\n".encode() + Path(path).read_bytes())
    return h.hexdigest()


def main():
    tmp = Path(tempfile.mkdtemp(prefix="cli_digest_"))
    try:
        total = hashlib.sha256()
        for argv in argvs(tmp, *write_inputs(tmp)):
            line = f"{run(argv, tmp)} {' '.join(argv).replace(str(tmp), '<tmp>')}"
            total.update(line.encode() + b"\n")
            print(line)
        print(f"{total.hexdigest()} total")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
