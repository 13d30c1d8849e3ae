#!/usr/bin/env python3
"""Sweep seeded random metrics and compare the polynomial deciders against
brute-force enumeration, reporting the answer distribution and timings.

Usage:
    python3 scripts/oracle_sweep.py --count 500 --max-vertices 7 --seed0 1
"""

import argparse
import random
import time
from collections import Counter

from combdmr import generate
from combdmr.graph import anchor_distances
from combdmr.matrix import RawMatrix, validate
from combdmr.solvers import solve_exact, solve_k0, solve_k1, solve_k2


def sample_metric(seed, max_vertices):
    densities = (0.0, 0.15, 0.35, 0.6)
    rng = random.Random(seed)
    h = rng.randrange(2, max_vertices + 1)
    n = rng.randrange(2, h + 1)
    g = generate.random_connected_graph(rng, h, densities[seed % len(densities)])
    pool = list(range(1, h + 1))
    chosen = sorted(pool.pop(rng.randrange(len(pool))) for _ in range(n))
    full = anchor_distances(g)
    rows = [[full.dist(a, b) for b in chosen] for a in chosen]
    return validate(RawMatrix.from_rows(rows))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--max-vertices", type=int, default=7)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    solvers = {0: solve_k0, 1: solve_k1, 2: solve_k2}
    answers = Counter()
    poly_time = brute_time = 0.0
    mismatches = 0

    for i in range(args.count):
        d = sample_metric(args.seed0 + i, args.max_vertices)
        for k in (0, 1, 2):
            t0 = time.perf_counter()
            fast = solvers[k](d) is not None
            poly_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            brute = solve_exact(d, k) is not None
            brute_time += time.perf_counter() - t0
            answers[(k, fast)] += 1
            if fast != brute:
                mismatches += 1
                print(f"MISMATCH seed={args.seed0 + i} k={k}: {[list(row) for row in d.entries]}")

    print(f"instances: {args.count}  (n up to {args.max_vertices} anchors)")
    for k in (0, 1, 2):
        yes, no = answers[(k, True)], answers[(k, False)]
        print(f"  k={k}: YES={yes}  NO={no}")
    print(f"polynomial deciders: {poly_time:.2f}s   brute force: {brute_time:.2f}s")
    print(f"mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
