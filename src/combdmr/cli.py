"""Command-line front end.

Exit codes: 0 = YES / valid / success, 1 = NO (including "no tree
realisation"), 2 = invalid input, 3 = a search guard was exceeded, 4 = an
internal error (a failed self-check or a crash, never an answer).  All
human-readable output goes to stdout, and the last line is always the
machine-readable summary ``verdict=<YES|NO> vertices=<m> extra=<e>``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from pathlib import Path

from . import generate, reduction, solvers, tree, twosat
from .graph import NotARealisation, Realisation, SimpleGraph, verify_realisation
from .matrix import DistanceMatrix, ValidationError, validate
from .reduction import Colouring
from .textio import (
    ParseError,
    emit_colouring,
    emit_graph,
    emit_matrix,
    emit_weighted_tree,
    parse_colouring,
    parse_graph,
    parse_matrix,
    to_dot,
)
from .tree import ZareckiiReport


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_matrix(path: str) -> DistanceMatrix:
    return validate(parse_matrix(_read_text(path)))


def _load_graph(path: str) -> SimpleGraph:
    return parse_graph(_read_text(path))


def _summary(verdict: str, vertices: int, extra: int) -> None:
    print(f"verdict={verdict} vertices={vertices} extra={extra}")


def _emit_payload(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        print(payload, end="")


def _write_graph_outputs(args: argparse.Namespace, g: SimpleGraph) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(emit_graph(g))
    if getattr(args, "dot", None):
        Path(args.dot).write_text(to_dot(g))


def _finish_yes(args: argparse.Namespace, r: Realisation, extra: int) -> int:
    # A Realisation verified its graph when it was constructed.
    _write_graph_outputs(args, r.graph)
    print(
        f"YES: realisable with {extra} extra "
        f"vert{'ex' if extra == 1 else 'ices'} "
        f"({r.graph.vertex_count} vertices total)"
    )
    _summary("YES", r.graph.vertex_count, extra)
    return 0


def _finish(args: argparse.Namespace, outcome: solvers.SolveOutcome) -> int:
    if outcome.realisation is not None:
        return _finish_yes(args, outcome.realisation, outcome.extra_vertices_used)
    print(f"NO: not realisable with at most {args.k} extra vertices")
    _summary("NO", 0, 0)
    return 1


def cmd_validate(args: argparse.Namespace) -> int:
    d = _load_matrix(args.input)
    print(f"valid distance matrix (n={d.n})")
    _summary("YES", d.n, 0)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    d = _load_matrix(args.input)
    solver = {0: solvers.solve_k0, 1: solvers.solve_k1, 2: solvers.solve_k2}
    outcome = solver[args.k](d)
    if args.dump_cnf:
        parts = []
        if args.k >= 1:
            parts.append(twosat.dimacs(solvers.build_phi1(d)))
        if args.k >= 2:
            parts.append("c two extra vertices, non-adjacent\n")
            parts.append(twosat.dimacs(solvers.build_phi2(d)))
            parts.append("c two extra vertices, adjacent\n")
            parts.append(twosat.dimacs(solvers.build_phi2_prime(d)))
        if not parts:
            parts.append("c no formula involved for k=0\n")
        Path(args.dump_cnf).write_text("".join(parts))
    return _finish(args, outcome)


def cmd_solve_exact(args: argparse.Namespace) -> int:
    d = _load_matrix(args.input)
    return _finish(args, solvers.solve_exact(d, args.k, args.max_free_edges))


def cmd_bounds(args: argparse.Namespace) -> int:
    d = _load_matrix(args.input)
    b = solvers.bounds(d)
    print(f"q0={b.q0}")
    print(f"lower={b.lower}")
    print(f"upper={b.upper}")
    _summary("YES", b.lower, b.q0 - 1)
    return 0


def _zareckii_line(report: ZareckiiReport) -> str:
    if report.holds:
        return "zareckii=holds"
    assert report.violation is not None
    kind, witness = report.violation
    return f"zareckii=violated {kind.value} at {witness}"


def cmd_tree(args: argparse.Namespace) -> int:
    d = _load_matrix(args.input)
    wt = tree.build_weighted_tree(d)
    result = tree.expand_tree(d, wt)
    if args.certify:
        report = tree.check_zareckii(d)
        print(_zareckii_line(report))
        if report.holds != (result is not None):
            raise AssertionError("tree deciders disagree")
        print("certify: condition check and construction agree")
    if result is None:
        print("NO: no tree realisation exists")
        _summary("NO", 0, 0)
        return 1
    if args.weighted_out:
        assert wt is not None
        Path(args.weighted_out).write_text(emit_weighted_tree(wt))
    _write_graph_outputs(args, result.graph)
    vc = result.graph.vertex_count
    print(f"YES: tree realisation with {vc} vertices")
    _summary("YES", vc, vc - d.n)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    inst = reduction.reduce(g)
    print(f"reduced: n_c={inst.n_c} n_g={inst.n_g} n={inst.n}")
    _emit_payload(emit_matrix(inst.matrix), args.out)
    _summary("YES", inst.n, 0)
    return 0


def cmd_colour_realise(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    c = parse_colouring(_read_text(args.colouring))
    if args.k is not None:
        if args.k < c.k:
            raise ValueError(f"k={args.k} is below the largest colour used ({c.k})")
        c = Colouring(args.k, c.colours)
    inst = reduction.reduce(g)
    r = reduction.realise_from_colouring(inst, c)
    return _finish_yes(args, r, c.k)


def cmd_extract_colouring(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    inst = reduction.reduce(g)
    rg = _load_graph(args.realisation)
    try:
        r = Realisation(rg, inst.matrix)
    except NotARealisation as exc:
        # The graph came from the user, so this is invalid input.
        raise reduction.MalformedRealisation(str(exc)) from exc
    c = reduction.extract_colouring(inst, r, args.k)
    _emit_payload(emit_colouring(c), args.out)
    _summary("YES", inst.n_c, args.k)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    d = _load_matrix(args.matrix)
    extra = g.vertex_count - g.anchor_count
    if verify_realisation(g, d):
        print("YES: the graph realises the matrix")
        _summary("YES", g.vertex_count, extra)
        return 0
    print("NO: the graph does not realise the matrix")
    _summary("NO", g.vertex_count, extra)
    return 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.mode == "random-metric":
        if args.vertices is None:
            raise ValueError("--vertices is required for random-metric")
        anchors = args.anchors if args.anchors is not None else args.vertices
        d = generate.random_metric(args.seed, args.vertices, anchors)
    elif args.mode == "random-tree-metric":
        if args.anchors is None:
            raise ValueError("--anchors is required for random-tree-metric")
        d = generate.random_tree_metric(args.seed, args.anchors)
    else:  # reduction
        if args.input is None:
            raise ValueError("--input is required for reduction mode")
        d = reduction.reduce(_load_graph(args.input)).matrix
    _emit_payload(emit_matrix(d), args.out)
    _summary("YES", d.n, 0)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls.
    p = argparse.ArgumentParser(
        prog="combdmr",
        description="Realise integer distance matrices by unweighted graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the distance-matrix axioms")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("solve", help="decide with at most k extra vertices")
    sp.add_argument("--k", type=int, choices=(0, 1, 2), required=True)
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.add_argument("--dot")
    sp.add_argument("--dump-cnf")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("solve-exact", help="brute-force decision for small k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--max-free-edges", type=int, default=30)
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.add_argument("--dot")
    sp.set_defaults(func=cmd_solve_exact)

    sp = sub.add_parser("bounds", help="vertex-count bounds for realisations")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("tree", help="decide and build a tree realisation")
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.add_argument("--dot")
    sp.add_argument("--certify", action="store_true")
    sp.add_argument("--weighted-out")
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("reduce", help="colourability-to-realisability gadget")
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser(
        "colour-realise", help="realisation of a gadget matrix from a colouring"
    )
    sp.add_argument("graph")
    sp.add_argument("colouring")
    sp.add_argument("--k", type=int)
    sp.add_argument("--out")
    sp.add_argument("--dot")
    sp.set_defaults(func=cmd_colour_realise)

    sp = sub.add_parser(
        "extract-colouring", help="read a colouring off a gadget realisation"
    )
    sp.add_argument("graph")
    sp.add_argument("realisation")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_extract_colouring)

    sp = sub.add_parser("verify", help="check a graph against a matrix")
    sp.add_argument("graph")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gen", help="seeded instance generation")
    sp.add_argument(
        "--mode",
        choices=("random-metric", "random-tree-metric", "reduction"),
        required=True,
    )
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--vertices", type=int)
    sp.add_argument("--anchors", type=int)
    sp.add_argument("--input")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen)

    return p


def _internal_error(exc: Exception) -> int:
    # A failed self-check or a crash is not an answer: exiting 1 would read
    # as NO.
    traceback.print_exc()
    print(f"error: internal: {type(exc).__name__}: {exc}")
    _summary("NO", 0, 0)
    return 4


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except solvers.SearchSpaceTooLarge as exc:
        print(f"error: {exc}")
        _summary("NO", 0, 0)
        return 3
    except NotARealisation as exc:
        # A decider emitted a graph that fails its own check: not bad input.
        return _internal_error(exc)
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        _summary("NO", 0, 0)
        return 2
    except Exception as exc:
        return _internal_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
