"""Command-line front end.

Exit codes: 0 = YES / valid / success, 1 = NO (including "no tree
realisation"), 2 = invalid input, 3 = a search or size guard was exceeded,
4 = an internal error (a failed self-check or a crash, never an answer).
All human-readable output goes to stdout, and the last line is always the
machine-readable summary ``verdict=<YES|NO> vertices=<m> extra=<e>``, on
usage errors too; only ``--help`` prints nothing but the help.  Subcommands
return their verdict and :func:`main` prints the summary and picks the code.
Each subcommand imports the deciders it runs, so a process loads no more
than its own subcommand needs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable
from pathlib import Path

from .graph import NotARealisation, Realisation, SearchSpaceTooLarge, SimpleGraph
from .graph import verify_realisation
from .matrix import (
    DistanceMatrix,
    RawMatrix,
    check_structure,
    check_triangles,
    validate,
)
from .textio import (
    emit_colouring,
    emit_graph,
    emit_matrix,
    emit_weighted_tree,
    parse_colouring,
    parse_graph,
    parse_matrix,
    to_dot,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _read_matrix(path: str) -> RawMatrix:
    return parse_matrix(_read_text(path))


def _load_graph(path: str) -> SimpleGraph:
    return parse_graph(_read_text(path))


# What a subcommand answers: (YES?, vertices, extra) for the summary line.
Verdict = tuple[bool, int, int]


def _decided(
    d: DistanceMatrix,
    decide: Callable[[], Realisation | bool | None],
    proves: Callable[[], bool] = lambda: False,
) -> Realisation | bool | None:
    """``decide()``, with the triangle scan of d first unless it answers
    with a verified YES: a :class:`Realisation`, or True from
    :func:`verify_realisation`, or unless ``proves()`` holds after a NO.

    The deciders need only the structural check.  A graph whose anchor
    distances equal d proves d a metric, so a verified YES needs no scan,
    and neither does a NO whose ``proves`` builds such a graph from what
    the decider computed.  Any other NO or an exception may stem from a
    triangle violation instead; the scan then raises ``validate``'s error
    in its place, before anything of the decider's is printed or written.
    """
    try:
        answer = decide()
    except Exception:
        check_triangles(d)
        raise
    if not answer and not proves():
        check_triangles(d)
    return answer


def _graph_verdict(yes: bool, g: SimpleGraph) -> Verdict:
    return yes, g.vertex_count, g.vertex_count - g.anchor_count


def _emit_payload(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        print(payload, end="")


def _write_graph_outputs(args: argparse.Namespace, g: SimpleGraph) -> None:
    if args.out:
        Path(args.out).write_text(emit_graph(g))
    if args.dot:
        Path(args.dot).write_text(to_dot(g))


def _finish_yes(args: argparse.Namespace, r: Realisation) -> Verdict:
    # A Realisation verified its graph when it was constructed.
    _write_graph_outputs(args, r.graph)
    yes, vertices, extra = _graph_verdict(True, r.graph)
    print(
        f"YES: realisable with {extra} extra "
        f"vert{'ex' if extra == 1 else 'ices'} "
        f"({vertices} vertices total)"
    )
    return yes, vertices, extra


def _finish(args: argparse.Namespace, r: Realisation | None) -> Verdict:
    if r is not None:
        return _finish_yes(args, r)
    print(f"NO: not realisable with at most {args.k} extra vertices")
    return False, 0, 0


def cmd_validate(args: argparse.Namespace) -> Verdict:
    d = validate(_read_matrix(args.input))
    print(f"valid distance matrix (n={d.n})")
    return True, d.n, 0


def cmd_solve(args: argparse.Namespace) -> Verdict:
    from . import solvers
    d = check_structure(_read_matrix(args.input))
    solver = {0: solvers.solve_k0, 1: solvers.solve_k1, 2: solvers.solve_k2}[args.k]
    # The decider, the proof of a NO's metric and the dump share d.masks.
    r = _decided(d, lambda: solver(d), lambda: solvers._proves_metric(d))
    if args.dump_cnf:
        Path(args.dump_cnf).write_text(solvers.ladder_cnf(d, args.k))
    return _finish(args, r)


def cmd_solve_exact(args: argparse.Namespace) -> Verdict:
    from . import solvers
    # The search is exponential, so a non-metric must not wait for it: the
    # scan runs first, and its cost is lost in the search's.
    d = validate(_read_matrix(args.input))
    return _finish(args, solvers.solve_exact(d, args.k, args.max_free_edges))


def cmd_bounds(args: argparse.Namespace) -> Verdict:
    from . import solvers
    # bounds proves the triangle inequality itself, or raises validate's error.
    b = solvers.bounds(check_structure(_read_matrix(args.input)))
    print(f"q0={b.q0}")
    print(f"lower={b.lower}")
    print(f"upper={b.upper}")
    return True, b.lower, b.q0 - 1


def cmd_tree(args: argparse.Namespace) -> Verdict:
    from . import tree
    d = check_structure(_read_matrix(args.input))

    # Built once, for the decision and for --weighted-out.
    weighted = functools.cache(lambda: tree.build_weighted_tree(d))
    result = _decided(d, lambda: tree.expand_tree(d, weighted()))
    # d is a metric now: the tree realises it, or the scan passed.
    if args.certify:
        # The builder's four-point pass answers the certificate's too.
        violation = tree.check_zareckii(d, weighted() is not None)
        if violation is None:
            print("zareckii=holds")
        else:
            print(f"zareckii=violated {violation[0].value} at {violation[1]}")
        if (violation is None) != (result is not None):
            raise AssertionError("tree deciders disagree")
        print("certify: condition check and construction agree")
    if result is None:
        print("NO: no tree realisation exists")
        return False, 0, 0
    if args.weighted_out:
        Path(args.weighted_out).write_text(emit_weighted_tree(weighted()))
    _write_graph_outputs(args, result.graph)
    print(f"YES: tree realisation with {result.graph.vertex_count} vertices")
    return _graph_verdict(True, result.graph)


def cmd_reduce(args: argparse.Namespace) -> Verdict:
    from . import reduction
    g = _load_graph(args.input)
    inst = reduction.reduce(g)
    print(f"reduced: n_c={inst.n_c} n_g={inst.n_g} n={inst.n}")
    _emit_payload(emit_matrix(inst.matrix), args.out)
    return True, inst.n, 0


def cmd_colour_realise(args: argparse.Namespace) -> Verdict:
    from . import reduction
    g = _load_graph(args.graph)
    c = parse_colouring(_read_text(args.colouring))
    if args.k is not None:
        if args.k < c.k:
            raise ValueError(f"k={args.k} is below the largest colour used ({c.k})")
        c = reduction.Colouring(args.k, c.colours)
    inst = reduction.reduce(g)
    r = reduction.realise_from_colouring(inst, c)
    return _finish_yes(args, r)


def cmd_extract_colouring(args: argparse.Namespace) -> Verdict:
    from . import reduction
    g = _load_graph(args.graph)
    rg = _load_graph(args.realisation)
    inst = reduction.reduce(g)
    try:
        r = Realisation(rg, inst.matrix)
    except NotARealisation as exc:
        # The graph came from the user, so this is invalid input.
        raise reduction.MalformedRealisation(str(exc)) from exc
    c = reduction.extract_colouring(inst, r, args.k)
    _emit_payload(emit_colouring(c), args.out)
    return True, inst.n_c, args.k


def cmd_verify(args: argparse.Namespace) -> Verdict:
    g = _load_graph(args.graph)
    d = check_structure(_read_matrix(args.matrix))
    ok = _decided(d, lambda: verify_realisation(g, d))
    if ok:
        print("YES: the graph realises the matrix")
    else:
        print("NO: the graph does not realise the matrix")
    return _graph_verdict(ok, g)


def cmd_gen(args: argparse.Namespace) -> Verdict:
    from . import generate
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
        from . import reduction
        d = reduction.reduce(_load_graph(args.input)).matrix
    _emit_payload(emit_matrix(d), args.out)
    return True, d.n, 0


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
    import traceback
    traceback.print_exc()
    print(f"error: internal: {type(exc).__name__}: {exc}")
    return 4


def main(argv: list[str] | None = None) -> int:
    # The only code that prints the summary line and picks the exit code.
    yes, vertices, extra = False, 0, 0
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0  # --help prints only the help
        code = 2
    else:
        try:
            yes, vertices, extra = args.func(args)
            code = 0 if yes else 1
        except SearchSpaceTooLarge as exc:
            print(f"error: {exc}")
            code = 3
        except NotARealisation as exc:
            # A decider emitted a graph that fails its own check: not bad input.
            code = _internal_error(exc)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}")
            code = 2
        except Exception as exc:
            code = _internal_error(exc)
    print(f"verdict={'YES' if yes else 'NO'} vertices={vertices} extra={extra}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
