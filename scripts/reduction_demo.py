#!/usr/bin/env python3
"""End-to-end colourability demo: reduce a graph, decide small k, and when a
colouring exists realise it and read it back off the realisation.

Usage:
    python3 scripts/reduction_demo.py path/to/input.graph [--max-k 4]
"""

import argparse
from pathlib import Path

from combdmr.reduction import (
    Colouring,
    extract_colouring,
    proper_colouring,
    realise_from_colouring,
    reduce,
)
from combdmr.solvers import solve_k1, solve_k2
from combdmr.textio import parse_graph

# The colouring search is exponential; larger inputs are refused up front.
MAX_VERTICES = 10


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("graph")
    ap.add_argument("--max-k", type=int, default=4)
    args = ap.parse_args()

    g = parse_graph(Path(args.graph).read_text())
    if g.vertex_count > MAX_VERTICES:
        print(f"error: {g.vertex_count} vertices exceeds the guard of {MAX_VERTICES}")
        return 3
    inst = reduce(g)
    print(f"input: {g.vertex_count} vertices, {len(g.edges)} edges")
    print(f"gadget: {inst.n_g} vertices; matrix dimension {inst.n}")

    chi = 1
    while (base := proper_colouring(g, chi)) is None:
        chi += 1
    print(f"chromatic number (brute force): {chi}")
    print(f"matrix solvable with 1 extra vertex:  {solve_k1(inst.matrix) is not None}")
    print(f"matrix solvable with 2 extra vertices: {solve_k2(inst.matrix) is not None}")

    for k in range(chi, args.max_k + 1):
        lifted = Colouring(k, base.colours)
        r = realise_from_colouring(inst, lifted)
        back = extract_colouring(inst, r, k)
        print(
            f"k={k}: realisation on {r.graph.vertex_count} vertices, "
            f"recovered colouring {back.colours}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
