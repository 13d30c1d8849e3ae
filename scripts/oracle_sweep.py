#!/usr/bin/env python3
"""Sweep seeded random metrics and compare the polynomial deciders against
brute-force enumeration, reporting the answer distribution and timings.

With ``--exhaustive N H`` the sweep takes instead every metric on 1 to N
anchors with entries up to H, one per class under relabelling of the
anchors.  On each NO it also checks the proof of the metric that ``solve``
runs: ``_proves_metric`` must hold exactly when q0 is at most 3 if the
ladder built the row masks at 3, and at most 2 otherwise.

Usage:
    python3 scripts/oracle_sweep.py --count 500 --max-vertices 7 --seed0 1
    python3 scripts/oracle_sweep.py --exhaustive 5 3
"""

import argparse
import itertools
import random
import time
from collections import Counter

from combdmr import generate
from combdmr.graph import anchor_distances, q_zero
from combdmr.matrix import DistanceMatrix, RawMatrix, check_structure, validate
from combdmr.solvers import _ladder, _proves_metric, solve_exact, solve_k0, solve_k1, solve_k2


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


def every_metric(max_n, top):
    """Each metric on 1..max_n anchors with entries up to top that is the
    least, as a tuple of rows, among its relabellings."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        for values in itertools.product(range(1, top + 1), repeat=len(pairs)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), a in zip(pairs, values):
                rows[i][j] = rows[j][i] = a
            if any(rows[i][j] > rows[i][w] + rows[w][j] for i, j in pairs for w in range(n)):
                continue
            key = tuple(map(tuple, rows))
            if all(key <= tuple(tuple(rows[p][q] for q in perm) for p in perm) for perm in perms):
                yield check_structure(RawMatrix.from_rows(rows))


def exhaustive(max_n, top):
    """The ladder against brute force on :func:`every_metric`, and the NO proof."""
    answers = Counter()
    mismatches = classes = 0
    t0 = time.perf_counter()
    for d in every_metric(max_n, top):
        classes += 1
        q0 = q_zero(d)
        rows = [list(row) for row in d.entries]
        for k in (0, 1, 2):
            # A fresh matrix per k, so the row masks are the ladder's at k.
            dk = DistanceMatrix(d.entries)
            fast = _ladder(dk, k) is not None
            brute = solve_exact(d, k) is not None
            answers[(k, fast)] += 1
            if fast != brute:
                mismatches += 1
                print(f"MISMATCH k={k}: {rows}")
            if not fast:
                reach = 3 if 3 in dk.masks else 2
                if _proves_metric(dk) != (q0 <= reach):
                    mismatches += 1
                    print(f"PROOF MISMATCH k={k} q0={q0} reach={reach}: {rows}")
    print(f"metrics: {classes} classes on up to {max_n} anchors, entries up to {top}")
    for k in (0, 1, 2):
        print(f"  k={k}: YES={answers[(k, True)]}  NO={answers[(k, False)]}")
    print(f"time: {time.perf_counter() - t0:.2f}s")
    print(f"mismatches: {mismatches}")
    return 1 if mismatches else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--max-vertices", type=int, default=7)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--exhaustive", type=int, nargs=2, metavar=("N", "H"))
    args = ap.parse_args()
    if args.exhaustive:
        return exhaustive(*args.exhaustive)

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
