"""Exit-code contract and file outputs of the command-line surface.

Byte-level golden comparisons for the fixed instances live in the
acceptance suite; these tests cover behaviour and error paths.
"""

import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import helpers
from combdmr import cli, generate, matrix, reduction, solvers, tree, twosat
from combdmr.graph import Realisation, SimpleGraph
from combdmr.cli import main
from combdmr.matrix import RawMatrix, ValidationError, ViolationKind, validate
from combdmr.textio import parse_colouring, parse_graph, parse_matrix


DATA = Path(__file__).parent / "data"


@pytest.fixture
def twos(tmp_path):
    p = tmp_path / "twos.mat"
    p.write_text("0 2 2\n2 0 2\n2 2 0\n")
    return str(p)


@pytest.fixture
def bad(tmp_path):
    p = tmp_path / "bad.mat"
    p.write_text("0 5 1\n5 0 1\n1 1 0\n")
    return str(p)


def last_line(capsys):
    return capsys.readouterr().out.strip().splitlines()[-1]


def test_validate_ok(twos, capsys):
    assert main(["validate", twos]) == 0
    assert last_line(capsys) == "verdict=YES vertices=3 extra=0"


def test_validate_invalid(bad, capsys):
    assert main(["validate", bad]) == 2
    out = capsys.readouterr().out
    assert "triangle-violation" in out
    assert "(1, 2, 3)" in out
    assert out.strip().splitlines()[-1] == "verdict=NO vertices=0 extra=0"


def test_solve_yes_with_outputs(twos, tmp_path, capsys):
    out = tmp_path / "real.graph"
    dot = tmp_path / "real.dot"
    cnf = tmp_path / "phi.cnf"
    code = main(
        [
            "solve",
            "--k",
            "1",
            twos,
            "--out",
            str(out),
            "--dot",
            str(dot),
            "--dump-cnf",
            str(cnf),
        ]
    )
    assert code == 0
    assert last_line(capsys) == "verdict=YES vertices=4 extra=1"
    g = parse_graph(out.read_text())
    assert g.edges == frozenset({(1, 4), (2, 4), (3, 4)})
    assert dot.read_text().startswith("graph {")
    assert cnf.read_text().startswith("p cnf 3 6")


def test_solve_no(twos, capsys):
    assert main(["solve", "--k", "0", twos]) == 1
    assert last_line(capsys) == "verdict=NO vertices=0 extra=0"


def test_solve_exact_guard(tmp_path, capsys):
    rows = "\n".join(" ".join("0" if i == j else "2" for j in range(8)) for i in range(8))
    p = tmp_path / "big.mat"
    p.write_text(rows + "\n")
    assert main(["solve-exact", "--k", "4", str(p)]) == 3


def test_solve_exact_refuses_a_negative_k(twos, capsys):
    assert main(["solve-exact", "--k", "-1", twos]) == 2
    assert capsys.readouterr().out == (
        "error: k must be non-negative\nverdict=NO vertices=0 extra=0\n"
    )


def test_reduce_refuses_a_graph_with_auxiliary_vertices(tmp_path, capsys):
    p = tmp_path / "aux.graph"
    p.write_text("graph 3 2\n1 2\n2 3\n")
    assert main(["reduce", str(p)]) == 2
    assert capsys.readouterr().out == (
        "error: every vertex of the input graph must be colourable\n"
        "verdict=NO vertices=0 extra=0\n"
    )


def test_bounds(twos, capsys):
    assert main(["bounds", twos]) == 0
    out = capsys.readouterr().out
    assert "q0=2\nlower=4\nupper=6" in out


def test_tree_yes_and_certify(tmp_path, capsys, monkeypatch):
    p = tmp_path / "pair.mat"
    p.write_text("0 2\n2 0\n")
    weighted = tmp_path / "t.wtree"
    built = []
    build = tree.build_weighted_tree
    monkeypatch.setattr(tree, "build_weighted_tree", lambda d: built.append(d) or build(d))
    code = main(["tree", str(p), "--certify", "--weighted-out", str(weighted)])
    assert code == 0
    assert len(built) == 1
    out = capsys.readouterr().out
    assert "zareckii=holds" in out
    assert weighted.read_text() == "1 2 4\n"


def test_tree_no(tmp_path, capsys):
    p = tmp_path / "ones.mat"
    p.write_text("0 1 1\n1 0 1\n1 1 0\n")
    assert main(["tree", str(p), "--certify"]) == 1
    out = capsys.readouterr().out
    assert "zareckii=violated parity-triple" in out


def test_reduce_and_pipeline(tmp_path, capsys):
    graph = tmp_path / "k2.graph"
    graph.write_text("graph 2 2\n1 2\n")
    matrix = tmp_path / "k2.mat"
    assert main(["reduce", str(graph), "--out", str(matrix)]) == 0
    m = parse_matrix(matrix.read_text())
    assert len(m.entries) == 5

    colouring = tmp_path / "k2.col"
    colouring.write_text("1 1\n2 2\n")
    real = tmp_path / "k2.real"
    assert main(["colour-realise", str(graph), str(colouring), "--out", str(real)]) == 0
    assert last_line(capsys) == "verdict=YES vertices=7 extra=2"

    assert main(["verify", str(real), str(matrix)]) == 0

    extracted = tmp_path / "k2.extracted"
    assert (
        main(
            [
                "extract-colouring",
                str(graph),
                str(real),
                "--k",
                "2",
                "--out",
                str(extracted),
            ]
        )
        == 0
    )
    back = parse_colouring(extracted.read_text())
    assert back.colours[0] != back.colours[1]


def test_extract_colouring_from_non_realisation_is_invalid_input(tmp_path, capsys):
    # A user graph that does not realise the gadget matrix is bad input,
    # not an internal fault.
    graph = tmp_path / "k2.graph"
    graph.write_text("graph 2 2\n1 2\n")
    real = tmp_path / "path.graph"
    real.write_text("graph 7 5\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n")
    assert main(["extract-colouring", str(graph), str(real), "--k", "2"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2] == "error: graph does not realise the matrix"
    assert lines[-1] == "verdict=NO vertices=0 extra=0"


def test_extract_colouring_reads_both_graphs_before_it_reduces(tmp_path, capsys, monkeypatch):
    # A missing realisation file fails before the gadget is built.
    from combdmr import reduction

    reduced = []
    monkeypatch.setattr(reduction, "reduce", lambda g: reduced.append(g))
    missing = tmp_path / "missing.graph"
    assert main(["extract-colouring", str(DATA / "k2.graph"), str(missing), "--k", "2"]) == 2
    assert reduced == []
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"error: [Errno 2] No such file or directory: {str(missing)!r}",
        "verdict=NO vertices=0 extra=0",
    ]


def test_colour_realise_rejects_improper(tmp_path):
    graph = tmp_path / "k2.graph"
    graph.write_text("graph 2 2\n1 2\n")
    colouring = tmp_path / "same.col"
    colouring.write_text("1 1\n2 1\n")
    assert main(["colour-realise", str(graph), str(colouring)]) == 2


def test_verify_no(tmp_path, capsys):
    graph = tmp_path / "path.graph"
    graph.write_text("graph 3 3\n1 2\n2 3\n")
    matrix = tmp_path / "twos.mat"
    matrix.write_text("0 2 2\n2 0 2\n2 2 0\n")
    assert main(["verify", str(graph), str(matrix)]) == 1
    assert last_line(capsys) == "verdict=NO vertices=3 extra=0"


def test_gen_modes_are_deterministic(tmp_path, capsys):
    args = ["gen", "--mode", "random-metric", "--seed", "1", "--vertices", "6", "--anchors", "4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = "".join(
        line + "\n" for line in first.splitlines() if not line.startswith("verdict=")
    )
    m = parse_matrix(payload)
    assert len(m.entries) == 4
    assert helpers.brute_is_distance_matrix([list(r) for r in m.entries])


def test_gen_tree_metric_is_tree_realisable(capsys):
    assert main(["gen", "--mode", "random-tree-metric", "--seed", "1", "--anchors", "5"]) == 0
    out = capsys.readouterr().out
    payload = "".join(
        line + "\n" for line in out.splitlines() if not line.startswith("verdict=")
    )
    from combdmr.tree import check_zareckii

    rows = [list(map(int, line.split())) for line in payload.strip().splitlines()]
    assert check_zareckii(helpers.dm(rows)) is None


def test_gen_reduction_mode(tmp_path, capsys):
    graph = tmp_path / "k2.graph"
    graph.write_text("graph 2 2\n1 2\n")
    assert main(["gen", "--mode", "reduction", "--input", str(graph)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0 3 1 2 2"


def test_gen_random_metric_refuses_work_past_its_guard(capsys, monkeypatch):
    # 1000 vertices, all anchors, ran for 10 s: the guard exits 3 before the
    # graph is drawn, admits 400 vertices, and admits exactly its own work.
    drawn = _counting(monkeypatch, generate, "random_connected_graph")
    argv = ["gen", "--mode", "random-metric", "--vertices"]
    assert main([*argv, "1000"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        f"error: 1000^2 * (1000 + 32) = 1032000000 exceeds the guard of {generate._MAX_WORK}",
        "verdict=NO vertices=0 extra=0",
    ]
    assert not drawn
    assert 400 * 400 * (400 + 32) <= generate._MAX_WORK
    monkeypatch.setattr(generate, "_MAX_WORK", 6 * 6 * (4 + 32))
    assert main([*argv, "6", "--anchors", "4"]) == 0
    assert last_line(capsys) == "verdict=YES vertices=4 extra=0"
    assert main([*argv, "6", "--anchors", "5"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "error: 6^2 * (5 + 32) = 1332 exceeds the guard of 1296",
        "verdict=NO vertices=0 extra=0",
    ]
    assert len(drawn) == 1


def test_gen_missing_params(capsys):
    assert main(["gen", "--mode", "random-metric"]) == 2
    assert main(["gen", "--mode", "random-tree-metric"]) == 2
    assert main(["gen", "--mode", "reduction"]) == 2
    assert main(["gen", "--mode", "random-metric", "--vertices", "3", "--anchors", "9"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--mode", "random-metric"], "--vertices is required for random-metric"),
        (["gen", "--mode", "random-tree-metric"], "--anchors is required for random-tree-metric"),
        (["gen", "--mode", "reduction"], "--input is required for reduction mode"),
        (["colour-realise", "k2.graph", "k2.col", "--k", "1"],
         "k=1 is below the largest colour used (2)"),
        (["verify", "k2_real.graph", "twos.mat"],
         "graph has 5 anchors but the matrix has dimension 3"),
        (["extract-colouring", "quad.graph", "k2_real.graph", "--k", "2"],
         "graph has 5 anchors but the matrix has dimension 16"),
    ],
)
def test_invalid_input_bytes(capsys, argv, message):
    data = Path(__file__).parent / "data"
    argv = [str(data / a) if "." in a else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().out == f"error: {message}\nverdict=NO vertices=0 extra=0\n"


@pytest.mark.parametrize(
    "argv, files, stdin, code, out",
    [
        (["reduce", "e.graph"], {"e.graph": "graph 3 3\n1 2 3\n"}, "",
         2, "error: line 2: expected an edge 'u v'\nverdict=NO vertices=0 extra=0\n"),
        (["colour-realise", "k2.graph", "c.col"], {"c.col": "0 1\n"}, "",
         2, "error: line 1: vertex and colour are 1-based\nverdict=NO vertices=0 extra=0\n"),
        (["extract-colouring", "k2.graph", "nine.graph", "--k", "2"],
         {"nine.graph": (Path(__file__).parent / "data" / "k2_real.graph").read_text()
          .replace("graph 7 5", "graph 9 5")}, "",
         2, "error: realisation does not fit the gadget instance\nverdict=NO vertices=0 extra=0\n"),
        (["gen", "--mode", "random-tree-metric", "--anchors", "0"], {}, "",
         2, "error: need at least one anchor\nverdict=NO vertices=0 extra=0\n"),
        (["validate", "-"], {}, "0 1\n1 0\n",
         0, "valid distance matrix (n=2)\nverdict=YES vertices=2 extra=0\n"),
    ],
)
def test_refusals_and_stdin_input_print_their_line_and_the_summary(
    tmp_path, capsys, monkeypatch, argv, files, stdin, code, out
):
    data = Path(__file__).parent / "data"
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [
        str(tmp_path / a if a in files else data / a) if "." in a else a for a in argv
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == code
    assert capsys.readouterr().out == out


def test_solve_k2_dumps_both_formulas(tmp_path, capsys):
    p = tmp_path / "pair.mat"
    p.write_text("0 3\n3 0\n")
    cnf = tmp_path / "both.cnf"
    assert main(["solve", "--k", "2", str(p), "--dump-cnf", str(cnf)]) == 0
    text = cnf.read_text()
    assert text.count("p cnf") == 3  # one-extra formula plus both two-extra ones


@pytest.mark.parametrize("dump", [False, True])
def test_solve_builds_clause_lists_only_to_dump_them(tmp_path, capsys, monkeypatch, dump):
    # The deciders solve implication masks; clause lists are written only
    # for --dump-cnf, and the clause solver is never called.  The decider
    # and the dump share one build of the row masks of each distance.
    calls = []
    row_masks, instance = matrix._row_masks, solvers._instance
    ladder_cnf, solve = solvers.ladder_cnf, twosat.solve
    monkeypatch.setattr(
        matrix, "_row_masks", lambda levels, a: calls.append(a) or row_masks(levels, a)
    )
    monkeypatch.setattr(solvers, "_instance", lambda *a: calls.append("clauses") or instance(*a))
    monkeypatch.setattr(solvers, "ladder_cnf", lambda *a: calls.append("dump") or ladder_cnf(*a))
    monkeypatch.setattr(twosat, "solve", lambda inst: calls.append("solve") or solve(inst))
    p = tmp_path / "pair.mat"
    p.write_text("0 3\n3 0\n")  # needs phi1, phi2 and phi2'
    dump_args = ["--dump-cnf", str(tmp_path / "phi.cnf")] if dump else []
    assert main(["solve", "--k", "2", str(p)] + dump_args) == 0
    if dump:
        # phi1, phi2 and phi2' as clauses over the decider's row masks.
        assert calls == [2, 3, "dump", "clauses", "clauses", "clauses"]
    else:
        assert calls == [2, 3]


def test_missing_file_is_invalid_input(capsys):
    assert main(["validate", "/nonexistent/file.mat"]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_one_process_answers_interleaved_argvs_like_fresh_ones(tmp_path, capsys):
    # The parser is built once per process, so nothing of one call (an
    # option, a default, an output path) may reach the next.
    data = Path(__file__).parent / "data"
    pair = tmp_path / "pair.mat"
    pair.write_text("0 3\n3 0\n")
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    argvs = [
        ["tree", str(data / "twos.mat"), "--certify"],
        ["tree", str(data / "twos.mat")],
        ["solve", "--k", "2", str(pair), "--dump-cnf", str(outputs / "phi.cnf")],
        ["solve", "--k", "1", str(pair)],
        ["solve", "--k", "5", str(pair)],
        ["tree", str(data / "ones.mat"), "--certify", "--out", str(outputs / "t.graph")],
        ["tree", str(data / "eight.mat")],
        ["bounds", str(data / "eight.mat")],
        ["validate", str(data / "bad.mat")],
        ["frobnicate"],
    ]

    def run(argv):
        code = main(argv)
        written = sorted(p.name for p in outputs.iterdir())
        for p in outputs.iterdir():
            p.unlink()
        return code, capsys.readouterr(), written

    interleaved = [run(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert interleaved == fresh
    codes = [code for code, _, _ in interleaved]
    assert codes == [0, 0, 0, 1, 2, 1, 1, 0, 2, 2]
    assert "zareckii=" not in interleaved[1][1].out
    assert [written for _, _, written in interleaved[2:4]] == [["phi.cnf"], []]


SUMMARY = re.compile(r"^verdict=(YES|NO) vertices=\d+ extra=\d+$")


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["validate", "twos.mat"], 0),
        (["validate"], 2),
        (["solve", "--k", "1", "twos.mat"], 0),
        (["solve", "--k", "0", "twos.mat"], 1),
        (["solve", "--k", "5", "twos.mat"], 2),
        (["solve", "twos.mat"], 2),
        (["solve-exact", "--k", "1", "twos.mat"], 0),
        (["solve-exact", "--k", "0", "twos.mat"], 1),
        (["solve-exact", "twos.mat"], 2),
        (["solve-exact", "--k", "1", "--max-free-edges", "0", "twos.mat"], 3),
        (["bounds", "eight.mat"], 0),
        (["bounds", "eight.mat", "--out", "x"], 2),
        (["tree", "twos.mat"], 0),
        (["tree", "ones.mat"], 1),
        (["tree"], 2),
        (["reduce", "k2.graph"], 0),
        (["reduce"], 2),
        (["colour-realise", "k2.graph", "k2.col"], 0),
        (["colour-realise", "k2.graph"], 2),
        (["extract-colouring", "k2.graph", "k2_real.graph", "--k", "2"], 0),
        (["extract-colouring", "k2.graph", "k2_real.graph"], 2),
        (["verify", "k2_real.graph", "k2_reduced.mat"], 0),
        (["verify", "path3.graph", "twos.mat"], 1),
        (["verify", "k2_real.graph"], 2),
        (["gen", "--mode", "random-metric", "--vertices", "4"], 0),
        (["gen", "--mode", "bogus"], 2),
        (["validate", "bad.mat"], 2),
        (["frobnicate"], 2),
        ([], 2),
        (["solve-exact", "--k", "0", "--max-free-edges", "-1", "twos.mat"], 2),
    ],
)
def test_every_subcommand_ends_with_the_summary_line(tmp_path, capsys, argv, expected_code):
    data = Path(__file__).parent / "data"
    (tmp_path / "path3.graph").write_text("graph 3 3\n1 2\n2 3\n")
    argv = [
        str(tmp_path / a if a == "path3.graph" else data / a) if "." in a else a
        for a in argv
    ]
    code = main(argv)
    captured = capsys.readouterr()
    last = captured.out.splitlines()[-1]
    assert SUMMARY.match(last), last
    assert code == expected_code
    assert (code == 0) == last.startswith("verdict=YES")
    if code > 1:
        assert last == "verdict=NO vertices=0 extra=0"
    if "usage:" in captured.err:
        assert captured.out == last + "\n"


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_prints_only_the_help(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: combdmr")
    assert "verdict=" not in out


def test_large_entries_answer_no_without_walking_every_level(tmp_path):
    # The realisation check stops at the first empty BFS frontier; stepping
    # through all 2**32 - 1 empty levels of this matrix would take hours.
    far = tmp_path / "far.mat"
    far.write_text("0 4294967295\n4294967295 0\n")
    empty = tmp_path / "empty.graph"
    empty.write_text("graph 2 2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv, summary in (
        (["solve", "--k", "2", str(far)], "verdict=NO vertices=0 extra=0"),
        (["verify", str(empty), str(far)], "verdict=NO vertices=2 extra=0"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "combdmr.cli", *argv],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == summary


def _capped_cli(*argv):
    """The CLI in a fresh process whose address space is capped at 1 GiB."""
    cap = 1 << 30
    return subprocess.run(
        [sys.executable, "-m", "combdmr.cli", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_colour_realise_memory_grows_with_k_not_with_its_square(tmp_path):
    # The path 1-2-3 reduces to n = 9 anchors.  Each of 10**5 colour
    # classes is one extra vertex; no pair of extras may be listed.
    graph, colouring, real = tmp_path / "p3.graph", tmp_path / "p3.col", tmp_path / "p3.real"
    graph.write_text("graph 3 3\n1 2\n2 3\n")
    colouring.write_text("1 1\n2 2\n3 1\n")
    proc = _capped_cli("colour-realise", graph, colouring, "--k", 100000, "--out", real)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert real.read_text().splitlines()[0] == "graph 100009 9"


def test_colour_realise_refuses_more_vertices_than_the_guard(tmp_path, capsys, monkeypatch):
    # The path 1-2-3 reduces to n = 9 anchors, so --k 10**7 asks for 10**7
    # + 9 vertices; the guard the tree builder uses exits 3 before any edge
    # is built, and admits exactly its own vertex count.
    graph, colouring = tmp_path / "p3.graph", tmp_path / "p3.col"
    graph.write_text("graph 3 3\n1 2\n2 3\n")
    colouring.write_text("1 1\n2 2\n3 1\n")
    argv = ["colour-realise", str(graph), str(colouring), "--k"]
    assert main([*argv, "10000000"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        f"error: 10000009 vertices exceeds the guard of {tree._MAX_VERTICES}",
        "verdict=NO vertices=0 extra=0",
    ]
    monkeypatch.setattr(reduction, "_MAX_VERTICES", 11)
    assert main([*argv, "2"]) == 0
    assert last_line(capsys) == "verdict=YES vertices=11 extra=2"
    assert main([*argv, "3"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "error: 12 vertices exceeds the guard of 11",
        "verdict=NO vertices=0 extra=0",
    ]


def test_extract_colouring_memory_follows_the_edges_not_the_header(tmp_path):
    # The same realisation with 2**31 vertices declared, and k to match:
    # the colouring comes off its edges, as at its true size.
    header, body = (DATA / "k2_real.graph").read_text().split("\n", 1)
    anchors = int(header.split()[2])
    huge = tmp_path / "huge.graph"
    huge.write_text(f"graph {2**31} {anchors}\n{body}")
    k = 2**31 - anchors
    want = _capped_cli("extract-colouring", DATA / "k2.graph", DATA / "k2_real.graph", "--k", k)
    got = _capped_cli("extract-colouring", DATA / "k2.graph", huge, "--k", k)
    assert want.returncode == 0, want.stdout + want.stderr
    assert got.returncode == 0, got.stdout + got.stderr
    assert got.stdout == want.stdout


def _disagreeing_certificate(d, *_):
    return ViolationKind.PARITY_TRIPLE, (1, 2, 3)


def _too_deep(d, *_):
    raise RecursionError("maximum recursion depth exceeded")


def _three_path(d, *_):
    return Realisation(SimpleGraph(3, 3, frozenset({(1, 2), (2, 3)})), d)


def _twos_row(adj, s):
    # The row of anchor s in the all-2 matrix, whatever the graph.
    return [0] + [0 if v == s else 2 for v in range(1, len(adj))]


@pytest.mark.parametrize(
    "argv, module, name, fake, message",
    [
        (["tree", "--certify"], tree, "check_zareckii", _disagreeing_certificate,
         "AssertionError: tree deciders disagree"),
        (["solve", "--k", "0"], solvers, "solve_k0", _too_deep,
         "RecursionError: maximum recursion depth exceeded"),
        (["tree"], tree, "expand_tree", _three_path,
         "NotARealisation: graph does not realise the matrix"),
        (["solve-exact", "--k", "1"], solvers, "_bfs", _twos_row,
         "NotARealisation: graph does not realise the matrix"),
    ],
)
def test_internal_error_exits_4_not_no(
    twos, capsys, monkeypatch, argv, module, name, fake, message
):
    monkeypatch.setattr(module, name, fake)
    assert main(argv + [twos]) == 4
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2] == f"error: internal: {message}"
    assert lines[-1] == "verdict=NO vertices=0 extra=0"


# -- the triangle scan runs only on the way to a NO ------------------------------

@settings(max_examples=60, deadline=None)
@given(helpers.non_metric_cases(max_n=10))
# The tree builder raises "zero-weight edge" on this one.
@example([[0, 4, 1], [4, 0, 2], [1, 2, 0]])
# check_zareckii raises "four-point check failed on no quadruple" on this one.
@example([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
# Even perimeter and a full four-point pass, so check_zareckii finds nothing
# to report, yet 4 > 1 + 1.
@example([[0, 4, 1], [4, 0, 1], [1, 1, 0]])
def test_non_metrics_exit_2_with_the_validate_message_and_write_nothing(rows):
    # The deciders run on the structurally checked matrix; anything but a
    # verified YES, an exception included, goes through the scan before a
    # line or file is emitted.
    with pytest.raises(ValidationError) as err:
        validate(RawMatrix.from_rows(rows))
    message = f"error: {err.value}\nverdict=NO vertices=0 extra=0\n"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        mat = work / "m.mat"
        mat.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
        graph = work / "g.graph"
        graph.write_text(f"graph {len(rows)} {len(rows)}\n")
        outs = work / "outs"
        outs.mkdir()
        files = ["--out", str(outs / "r.graph"), "--dot", str(outs / "r.dot")]
        tree_files = files + ["--weighted-out", str(outs / "r.wt")]
        argvs = [
            *(["solve", "--k", str(k), str(mat), *files, "--dump-cnf", str(outs / "phi.cnf")]
              for k in (0, 1, 2)),
            ["solve-exact", "--k", "1", str(mat), *files],
            ["solve-exact", "--k", "1", "--max-free-edges", "0", str(mat), *files],
            ["tree", str(mat), *tree_files],
            ["tree", "--certify", str(mat), *tree_files],
            ["verify", str(graph), str(mat)],
            ["bounds", str(mat)],
        ]
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert (code, out.getvalue()) == (2, message), argv
            assert not list(outs.iterdir()), argv


def _scan_raises(d):
    raise RuntimeError("triangle scan ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--k", "0", "ones.mat"],
        ["solve", "--k", "1", "eight.mat"],
        ["solve", "--k", "2", "twos.mat"],
        ["tree", "twos.mat", "--certify"],
        ["verify", "k2_real.graph", "k2_reduced.mat"],
        ["reduce", "k2.graph"],
        ["colour-realise", "k2.graph", "k2.col"],
        ["extract-colouring", "k2.graph", "k2_real.graph", "--k", "2"],
        ["gen", "--mode", "random-metric", "--seed", "3", "--vertices", "12", "--anchors", "7"],
        ["gen", "--mode", "random-tree-metric", "--seed", "3", "--anchors", "9"],
    ],
)
def test_a_verified_yes_runs_no_triangle_scan(capsys, monkeypatch, argv):
    # A graph whose anchor distances equal the matrix proves the triangle
    # inequality, and a gadget matrix or a generated BFS metric is a metric
    # by construction.
    monkeypatch.setattr(matrix, "_first_triangle_violation", _scan_raises)
    data = Path(__file__).parent / "data"
    assert main([str(data / a) if "." in a else a for a in argv]) == 0
    assert "verdict=YES" in capsys.readouterr().out


def test_solve_exact_scans_before_its_exponential_search(tmp_path, capsys, monkeypatch):
    # 2**16 edge subsets at k = 1: a bad matrix must not wait for them.
    rows = [[abs(i - j) for j in range(16)] for i in range(16)]
    rows[0][15] = rows[15][0] = 21
    mat = tmp_path / "stretched.mat"
    mat.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    searched = []
    monkeypatch.setattr(solvers, "solve_exact", lambda *args: searched.append(args))
    assert main(["solve-exact", "--k", "1", str(mat)]) == 2
    assert capsys.readouterr().out == (
        "error: triangle-violation at (1, 16, 2)\nverdict=NO vertices=0 extra=0\n"
    )
    assert not searched


def _counting(monkeypatch, module, name):
    """Calls of ``module.name`` from here on, each recorded by its arguments."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["tree", "--certify", "twos.mat"], 0),
        (["tree", "--certify", "rows/two_digit.mat"], 0),
        (["tree", "--certify", "rows/wide.mat"], 0),
        (["extract-colouring", "k2.graph", "k2_real.graph", "--k", "2"], 0),
        (["solve", "--k", "2", "twos.mat"], 1),
        (["solve", "--k", "0", "ones.mat"], 1),
    ],
)
def test_the_check_of_a_realisation_builds_no_levels(capsys, monkeypatch, argv, builds):
    # The check reads the packed rows, so only a decider that reads the
    # levels builds them, once per matrix.
    calls = _counting(monkeypatch, matrix, "_levels")
    assert main([str(DATA / a) if "." in a else a for a in argv]) == 0
    assert "verdict=YES" in capsys.readouterr().out
    assert len(calls) == builds


@pytest.mark.parametrize("edges, bipartite", [
    ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)], True),
    ([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)], False),
])
def test_the_gadget_pipeline_runs_no_triangle_scan(
    tmp_path, capsys, monkeypatch, edges, bipartite
):
    # The benchmark's gadget pipeline: reduce, decide with two extra
    # vertices, read the colouring back off the realisation.  The YES
    # verifies its graph, and the NO proves the metric from the ladder's
    # primitive pairs, which in a gadget all lie at 1 or 2.
    calls = _counting(monkeypatch, matrix, "_first_triangle_violation")
    src = tmp_path / "src.graph"
    src.write_text("graph 6 6\n" + "".join(f"{u} {v}\n" for u, v in edges))
    mat, real, col = tmp_path / "g.mat", tmp_path / "g.real", tmp_path / "g.col"
    codes = [
        main(["reduce", str(src), "--out", str(mat)]),
        main(["solve", "--k", "2", str(mat), "--out", str(real)]),
        main(["extract-colouring", str(src), str(real), "--k", "2", "--out", str(col)]),
    ]
    assert codes == ([0, 0, 0] if bipartite else [0, 1, 2])
    assert not calls


# The files of tests/data that break the triangle inequality.
NON_METRICS = {"bad.mat", "tree/even_nonmetric.mat"}


@pytest.mark.parametrize(
    "name", sorted(str(p.relative_to(DATA)) for p in DATA.rglob("*.mat"))
)
def test_bounds_scans_only_a_non_metric(capsys, monkeypatch, name):
    # The primitive pairs prove a metric; the scan runs once, to name the
    # witness of a non-metric.
    metric = name not in NON_METRICS
    calls = _counting(monkeypatch, matrix, "_first_triangle_violation")
    assert main(["bounds", str(DATA / name)]) == (0 if metric else 2)
    assert len(calls) == (0 if metric else 1)


# The metrics of tests/data with a primitive pair beyond 2: the proof of a
# NO holds paths for the primitive pairs at 2, and at 3 only when the
# ladder built those masks, so a NO on these still scans.  far_pair's
# pair lies at 5, beyond any proof of the ladder; two_digit's q0 is 4,
# wide's 300 and steiner's 90.
BEYOND_TWO = {
    "ladder/adjacent.mat", "ladder/dead_root_adjacent.mat", "ladder/far_pair.mat",
    "rows/two_digit.mat", "rows/wide.mat", "verify/steiner.mat",
}


@pytest.mark.parametrize("k", ["0", "1", "2"])
@pytest.mark.parametrize(
    "name", sorted(str(p.relative_to(DATA)) for p in DATA.rglob("*.mat"))
)
def test_solve_scans_only_a_non_metric_or_a_no_its_proof_misses(capsys, monkeypatch, name, k):
    # A verified YES proves the metric, and so does a NO whose primitive
    # pairs at 2 (and 3) join into a graph that realises it; the scan runs
    # once otherwise, and names a non-metric's witness.
    calls = _counting(monkeypatch, matrix, "_first_triangle_violation")
    code = main(["solve", "--k", k, str(DATA / name)])
    if name in NON_METRICS:
        assert code == 2
        assert len(calls) == 1
    else:
        assert code in (0, 1)
        assert len(calls) == (code == 1 and name in BEYOND_TWO)
    if name == "ladder/far_pair.mat":
        assert code == 1


@pytest.mark.parametrize("name", ["twos.mat", "ones.mat", "eight.mat", "k2_reduced.mat"])
def test_tree_certify_runs_one_four_point_pass(capsys, monkeypatch, name):
    # The certificate takes its four-point answer from the builder's pass.
    calls = _counting(monkeypatch, tree, "_four_point_parents")
    assert main(["tree", "--certify", str(DATA / name)]) in (0, 1)
    assert "certify: condition check and construction agree" in capsys.readouterr().out
    assert len(calls) == 1
