"""End-to-end command-line flows (in-process)."""

from __future__ import annotations

import contextlib
import gc
import io
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import barterclear as bc
from barterclear.cli import _build_parser, _write_output, main
from conftest import report_fields

CONFLICT_GRAPH = (
    "V a red\nV b red\nV c red\nV d blue\n"
    "E a b\nE b c\nE c a\nE a d\nE d a\n"
)
DIMACS_A = "p cnf 2 2\n1 -2 0\n2 0\n"  # satisfiable
DIMACS_B = "p cnf 1 2\n1 0\n-1 0\n"  # contradiction


@pytest.fixture
def conflict_file(tmp_path):
    path = tmp_path / "conflict.graph"
    path.write_text(CONFLICT_GRAPH)
    return path


def test_gen_then_clear_then_verify(tmp_path, capsys):
    graph = tmp_path / "market.graph"
    solution = tmp_path / "out.sol"
    assert main(["gen", "--vertices", "8", "--colors", "3", "--edge-prob", "0.4",
                 "--seed", "5", "--output", str(graph)]) == 0
    assert main(["clear", "--input", str(graph), "--objective", "max-size",
                 "--method", "exact", "--output", str(solution)]) == 0
    report = report_fields(capsys.readouterr().out)
    assert report["objective"] == "max-size"
    assert main(["verify", "--graph", str(graph), "--solution", str(solution)]) == 0
    out = capsys.readouterr().out
    assert f"vertices {report['vertices']}" in out


def test_clear_every_objective_self_verifies(conflict_file, tmp_path, capsys):
    expected = {"max-size": (3, 1), "tex": (2, 2), "tmaxex": (3, 1), "maxtex": (2, 2)}
    for objective, metrics in expected.items():
        solution = tmp_path / f"{objective}.sol"
        assert main(["clear", "--input", str(conflict_file), "--objective", objective,
                     "--method", "exact", "--output", str(solution)]) == 0
        report = report_fields(capsys.readouterr().out)
        assert (int(report["vertices"]), int(report["colors"])) == metrics


def test_clear_wantlist_and_approx(tmp_path, capsys):
    market = tmp_path / "wants.txt"
    market.write_text("alice a1 : b1\nbob b1 : a1\n")
    solution = tmp_path / "out.sol"
    assert main(["clear", "--input", str(market), "--wantlist", "--objective", "tex",
                 "--method", "approx", "--output", str(solution)]) == 0
    report = report_fields(capsys.readouterr().out)
    assert report["method"] == "approx"
    assert report["guarantee"] == "1"  # one item per agent: the bound is exact
    assert report["colors"] == "2"
    assert report["nodes"] == "0" and float(report["seconds"]) > 0  # the assignment solve is timed


def test_clear_prints_the_report_keys_then_the_solution_file(conflict_file, tmp_path, capsys):
    keys = ["objective", "method", "vertices", "colors", "total-colors", "nodes", "seconds"]
    runs = [[objective, "exact"] for objective in ("max-size", "tex", "tmaxex", "maxtex")]
    runs.append(["tex", "approx"])
    g = bc.parse_graph(CONFLICT_GRAPH)
    for objective, method in runs:
        solution = tmp_path / f"{objective}-{method}.sol"
        solution.write_text("C a b c\n" * 50)  # a longer output is overwritten, no tail left
        assert main(["clear", "--input", str(conflict_file), "--objective", objective,
                     "--method", method, "--output", str(solution)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines(keepends=True)
        expected = keys + ["guarantee"] if method == "approx" else keys
        head, tail = lines[:len(expected)], lines[len(expected):]
        assert [line.split()[0] for line in head] == expected
        assert "".join(tail) == solution.read_text() != ""
        report = report_fields(out)
        assert (report["objective"], report["method"]) == (objective, method)
        assert main(["verify", "--graph", str(conflict_file), "--solution", str(solution)]) == 0
        counts = capsys.readouterr().out.splitlines()[:2]
        assert counts == [f"vertices {report['vertices']}",
                          f"colors {report['colors']} of {report['total-colors']}"]
        assert report["total-colors"] == str(g.color_count)
        assert str(bc.parse_integer(report["nodes"])) == report["nodes"]
        assert report["seconds"] == repr(float(report["seconds"]))
        if method == "approx":
            assert report["guarantee"] == f"1/{bc.per_color_bound(g)}"


def test_reduce_and_gen_overwrite_longer_outputs_with_exactly_their_text(tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    stale = "# stale\n" * 2000
    texts = {}
    for run in ("fresh", "stale"):
        graph, gmap, market = (tmp_path / f"{run}.{ext}" for ext in ("graph", "map", "market"))
        if run == "stale":
            for path in (graph, gmap, market):
                path.write_text(stale)
        assert main(["reduce", "--cnf", str(cnf), "--output", str(graph),
                     "--map", str(gmap)]) == 0
        assert main(["gen", "--vertices", "8", "--colors", "3", "--edge-prob", "0.4",
                     "--seed", "5", "--output", str(market)]) == 0
        texts[run] = [path.read_text() for path in (graph, gmap, market)]
    capsys.readouterr()
    assert texts["stale"] == texts["fresh"]
    assert all(0 < len(text) < len(stale) for text in texts["fresh"])


def test_a_new_output_gets_the_mode_write_text_gives(tmp_path):
    old = os.umask(0o027)
    try:
        reference = tmp_path / "reference"
        reference.write_text("")
        market = tmp_path / "market.graph"
        assert main(["gen", "--vertices", "8", "--colors", "3", "--edge-prob", "0.4",
                     "--seed", "5", "--output", str(market)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(market.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_outputs_to_dev_null(conflict_file, capsys):
    assert main(["clear", "--input", str(conflict_file), "--objective", "tex",
                 "--output", "/dev/null"]) == 0
    assert main(["gen", "--vertices", "8", "--colors", "3", "--edge-prob", "0.4",
                 "--seed", "5", "--output", "/dev/null"]) == 0
    assert "C a d\n" in capsys.readouterr().out


def test_an_output_that_is_a_directory_is_an_input_error(conflict_file, tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    for argv in (["clear", "--input", str(conflict_file), "--objective", "tex",
                  "--output", str(tmp_path)],
                 ["reduce", "--cnf", str(cnf), "--output", str(tmp_path / "g"),
                  "--map", str(tmp_path)],
                 ["gen", "--vertices", "8", "--colors", "3", "--edge-prob", "0.4",
                  "--seed", "5", "--output", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_decide_reads_a_wantlist_as_its_graph_file(tmp_path, capsys):
    wants = tmp_path / "wants.txt"
    wants.write_text("alice a1 : b1 c1\nbob b1 : a1\ncarol c1 : a2\nalice a2 : c1\n")
    graph = tmp_path / "wants.graph"
    graph.write_text(bc.serialize_graph(bc.parse_wantlist(wants.read_text())))
    for decision in ("exchange-x", "tex", "tmaxex", "maxtex-x"):
        x = ["--x", "3"] if decision.endswith("-x") else []
        answers = []
        for argv in (["--input", str(wants), "--wantlist"], ["--input", str(graph)]):
            code = main(["decide", *argv, "--objective", decision, *x])
            answers.append((code, capsys.readouterr().out))
        assert answers[0] == answers[1]
        assert answers[0][1].count("\n") == 3


def test_clear_min_vertices_decision(conflict_file, tmp_path, capsys):
    solution = tmp_path / "out.sol"
    base = ["clear", "--input", str(conflict_file), "--objective", "max-size",
            "--output", str(solution)]
    assert main(base + ["--min-vertices", "3"]) == 0
    capsys.readouterr()
    assert main(base + ["--min-vertices", "4"]) == 1
    capsys.readouterr()


def test_clear_no_self_trades(tmp_path, capsys):
    market = tmp_path / "wants.txt"
    market.write_text("alice a1 : a1\n")
    solution = tmp_path / "out.sol"
    assert main(["clear", "--input", str(market), "--wantlist", "--objective", "max-size",
                 "--no-self-trades", "--output", str(solution)]) == 0
    assert report_fields(capsys.readouterr().out)["vertices"] == "0"
    assert main(["clear", "--input", str(market), "--wantlist", "--objective", "max-size",
                 "--output", str(solution)]) == 0
    # self-trade admitted without the flag
    assert report_fields(capsys.readouterr().out)["vertices"] == "1"


def test_decide_exchange_x(conflict_file, capsys):
    base = ["decide", "--input", str(conflict_file), "--objective", "exchange-x"]
    assert main(base + ["--x", "3"]) == 0
    assert capsys.readouterr().out.startswith("YES")
    assert main(base + ["--x", "4"]) == 1
    assert capsys.readouterr().out.startswith("NO")
    assert main(base) == 2  # --x is required


def test_decide_tmaxex_and_maxtex_x(conflict_file, capsys):
    assert main(["decide", "--input", str(conflict_file), "--objective", "tmaxex"]) == 1
    capsys.readouterr()
    # a threshold only the -x decisions read is an input error elsewhere
    for decision in ("tex", "tmaxex"):
        assert main(["decide", "--input", str(conflict_file), "--objective", decision,
                     "--x", "3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --x is not used with {decision}\n")
    # the color-primary optimum has 2 vertices
    base = ["decide", "--input", str(conflict_file), "--objective", "maxtex-x"]
    assert main(base + ["--x", "2"]) == 0
    capsys.readouterr()
    assert main(base + ["--x", "3"]) == 1
    capsys.readouterr()


def test_reduce_decide_honors_satisfiability(tmp_path, capsys):
    for dimacs, expected in ((DIMACS_A, 0), (DIMACS_B, 1)):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(dimacs)
        graph = tmp_path / "f.graph"
        gmap = tmp_path / "f.map"
        assert main(["reduce", "--cnf", str(cnf), "--variant", "plain",
                     "--output", str(graph), "--map", str(gmap)]) == 0
        capsys.readouterr()
        assert main(["decide", "--input", str(graph), "--objective", "tex"]) == expected
        capsys.readouterr()
        assert main(["reduce", "--cnf", str(cnf), "--variant", "balanced",
                     "--output", str(graph), "--map", str(gmap)]) == 0
        capsys.readouterr()
        assert main(["decide", "--input", str(graph), "--objective", "tmaxex"]) == expected
        capsys.readouterr()


def test_reduce_clear_pullback_flow(tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    graph = tmp_path / "a.graph"
    gmap = tmp_path / "a.map"
    solution = tmp_path / "a.sol"
    assert main(["reduce", "--cnf", str(cnf), "--variant", "plain",
                 "--output", str(graph), "--map", str(gmap)]) == 0
    capsys.readouterr()
    assert main(["clear", "--input", str(graph), "--objective", "tex",
                 "--output", str(solution)]) == 0
    capsys.readouterr()
    assert main(["pullback", "--map", str(gmap), "--solution", str(solution)]) == 0
    out = capsys.readouterr().out
    assert "satisfied 2 of 2" in out
    assert "x1 T" in out and "x2 T" in out


def test_pullback_unselected_variables_default_true(tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    graph = tmp_path / "a.graph"
    gmap = tmp_path / "a.map"
    solution = tmp_path / "empty.sol"
    solution.write_text("")
    assert main(["reduce", "--cnf", str(cnf), "--variant", "plain",
                 "--output", str(graph), "--map", str(gmap)]) == 0
    capsys.readouterr()
    assert main(["pullback", "--map", str(gmap), "--solution", str(solution)]) == 0
    out = capsys.readouterr().out
    assert "x1 T" in out and "x2 T" in out
    assert "satisfied 2 of 2" in out  # all-TRUE happens to satisfy CNF_A


def test_pullback_rejects_cycles_sharing_a_vertex(tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    graph, gmap = tmp_path / "a.graph", tmp_path / "a.map"
    assert main(["reduce", "--cnf", str(cnf), "--variant", "plain",
                 "--output", str(graph), "--map", str(gmap)]) == 0
    capsys.readouterr()
    both = tmp_path / "both.sol"
    for text, error in (
        ("C 0 2\nC 0\n", "vertex 0 is in two cycles"),  # the TRUE and the FALSE loop of x1
        ("C 0 2\nC 2 0\n", "vertex 0 is in two cycles"),  # one loop twice: the lowest id
        ("C 0 2 0\n", "cycle 0 2 0 is not simple"),  # one record through 0 twice
    ):
        both.write_text(text)
        for argv in (["verify", "--graph", str(graph)], ["pullback", "--map", str(gmap)]):
            assert main(argv + ["--solution", str(both)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {error}")
            assert len(captured.err.strip().splitlines()) == 1


def test_pullback_rejects_cycles_outside_the_gadget(tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    graph, gmap = tmp_path / "a.graph", tmp_path / "a.map"
    assert main(["reduce", "--cnf", str(cnf), "--variant", "plain",
                 "--output", str(graph), "--map", str(gmap)]) == 0
    capsys.readouterr()
    stray = tmp_path / "stray.sol"
    stray.write_text("C 1 4\nC 99 98\nC 0 2 9\n")  # a loop, unknown names, a loop plus a name
    assert main(["pullback", "--map", str(gmap), "--solution", str(stray)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: C 99 98 is neither a loop nor the balance cycle")
    assert len(captured.err.strip().splitlines()) == 1
    stray.write_text("C 0 2 9\n")
    assert main(["pullback", "--map", str(gmap), "--solution", str(stray)]) == 2
    assert capsys.readouterr().err.startswith("error: C 0 2 9 is neither")


def test_pullback_matches_loops_by_cyclic_order(tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    graph, gmap = tmp_path / "a.graph", tmp_path / "a.map"
    assert main(["reduce", "--cnf", str(cnf), "--variant", "balanced",
                 "--output", str(graph), "--map", str(gmap)]) == 0
    assert "VAR 1 TRUE 0 2 5\nVAR 1 FALSE 0 6 7\nVAR 2 TRUE 1 4 8\n" in gmap.read_text()
    capsys.readouterr()
    solution = tmp_path / "a.sol"
    solution.write_text("C 2 5 0\nC 8 1 4\n")  # both TRUE loops, rotated
    assert main(["pullback", "--map", str(gmap), "--solution", str(solution)]) == 0
    assert capsys.readouterr().out == "x1 T\nx2 T\nsatisfied 2 of 2\n"
    solution.write_text("C 0 5 2\nC 1 8 4\n")  # the vertices of both loops, reversed
    assert main(["verify", "--graph", str(graph), "--solution", str(solution)]) == 2
    assert capsys.readouterr().err == "error: line 1: no edge 0 -> 5\n"
    assert main(["pullback", "--map", str(gmap), "--solution", str(solution)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: C 0 5 2 is neither a loop nor the balance cycle "
                            "of the gadget map\n")


def test_2pc_pullback_accepts_the_balance_cycle(tmp_path, capsys):
    cnf = tmp_path / "c.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    graph, gmap, solution = tmp_path / "c.graph", tmp_path / "c.map", tmp_path / "c.sol"
    assert main(["reduce", "--cnf", str(cnf), "--variant", "2pc",
                 "--output", str(graph), "--map", str(gmap)]) == 0
    capsys.readouterr()
    assert main(["clear", "--input", str(graph), "--objective", "tex",
                 "--output", str(solution)]) == 0
    capsys.readouterr()
    balance_cycle = frozenset(bc.parse_gadget_map(gmap.read_text()).balance_cycle)
    assert balance_cycle in map(frozenset, bc.parse_cycles(solution.read_text()))
    assert main(["pullback", "--map", str(gmap), "--solution", str(solution)]) == 0
    assert "satisfied 2 of 2" in capsys.readouterr().out


def test_decide_matches_clear_for_every_objective(conflict_file, tmp_path, capsys):
    cnf = tmp_path / "a.cnf"
    cnf.write_text(DIMACS_A)
    gadget, gmap = tmp_path / "a.graph", tmp_path / "a.map"
    assert main(["reduce", "--cnf", str(cnf), "--variant", "balanced",
                 "--output", str(gadget), "--map", str(gmap)]) == 0
    capsys.readouterr()
    decisions = {"exchange-x": "max-size", "tex": "tex", "tmaxex": "tmaxex",
                 "maxtex-x": "maxtex"}
    for graph in (conflict_file, gadget):
        for decision, objective in decisions.items():
            assert main(["clear", "--input", str(graph), "--objective", objective,
                         "--output", str(tmp_path / "out.sol")]) == 0
            report = report_fields(capsys.readouterr().out)
            x = ["--x", "3"] if decision.endswith("-x") else []
            code = main(["decide", "--input", str(graph), "--objective", decision, *x])
            lines = capsys.readouterr().out.splitlines()
            assert lines[1:] == [f"vertices {report['vertices']}",
                                 f"colors {report['colors']} of {report['total-colors']}"]
            if decision.endswith("-x"):
                expected = int(report["vertices"]) >= 3
            else:
                expected = report["colors"] == report["total-colors"]
            assert (lines[0], code) == (("YES", 0) if expected else ("NO", 1))


def test_oracle_graph(conflict_file, capsys):
    assert main(["oracle", "--graph", str(conflict_file), "--objective", "maxtex"]) == 0
    out = capsys.readouterr().out
    assert "vertices 2" in out and "colors 2 of 2" in out
    assert "C a d" in out
    assert main(["oracle", "--graph", str(conflict_file), "--objective", "tex", "--sat"]) == 2
    assert capsys.readouterr().err == "error: --sat is not used with --graph\n"
    assert main(["oracle", "--graph", str(conflict_file), "--objective", "tex",
                 "--maxsat"]) == 2
    assert capsys.readouterr().err == "error: --maxsat is not used with --graph\n"


def test_oracle_cnf(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(DIMACS_A)
    assert main(["oracle", "--cnf", str(cnf), "--sat"]) == 0
    assert capsys.readouterr().out.strip() == "SATISFIABLE"
    assert main(["oracle", "--cnf", str(cnf), "--maxsat"]) == 0
    out = capsys.readouterr().out
    assert "max-satisfiable 2 of 2" in out
    cnf.write_text(DIMACS_B)
    assert main(["oracle", "--cnf", str(cnf), "--sat"]) == 1
    assert capsys.readouterr().out.strip() == "UNSATISFIABLE"
    assert main(["oracle", "--cnf", str(cnf)]) == 2  # needs --sat or --maxsat
    capsys.readouterr()
    for mode in ("--sat", "--maxsat"):
        assert main(["oracle", "--cnf", str(cnf), mode, "--objective", "tex"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --objective is not used with --cnf\n")


def test_verify_rejects_invalid_solution(conflict_file, tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_text("C a b c\nC a d\n")  # cycles share vertex a
    assert main(["verify", "--graph", str(conflict_file), "--solution", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_budget_exceeded_exit_code(conflict_file, tmp_path, capsys):
    solution = tmp_path / "out.sol"
    assert main(["clear", "--input", str(conflict_file), "--objective", "tex",
                 "--budget-nodes", "2", "--output", str(solution)]) == 3
    assert "node limit" in capsys.readouterr().err


def test_budget_limits_that_cannot_hold_are_input_errors(conflict_file, tmp_path, capsys):
    solution = tmp_path / "out.sol"
    for flag, value in (("--budget-nodes", "-5"), ("--budget-secs", "nan"),
                        ("--budget-secs", "-1")):
        assert main(["clear", "--input", str(conflict_file), "--objective", "tex",
                     flag, value, "--output", str(solution)]) == 2
        assert "limit must not be negative" in capsys.readouterr().err
    assert main(["clear", "--input", str(conflict_file), "--objective", "tex",
                 "--budget-secs", "inf", "--output", str(solution)]) == 0


def test_input_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.graph"
    solution = tmp_path / "out.sol"
    assert main(["clear", "--input", str(missing), "--objective", "tex",
                 "--output", str(solution)]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_bad_parameters_exit_code(tmp_path, capsys):
    assert main(["gen", "--vertices", "3", "--colors", "9", "--edge-prob", "0.5",
                 "--seed", "1", "--output", str(tmp_path / "g")]) == 2
    capsys.readouterr()


def test_main_runs_repeatedly_in_one_process(conflict_file, tmp_path, capsys):
    solution = tmp_path / "out.sol"
    clear = ["clear", "--input", str(conflict_file), "--objective", "max-size",
             "--output", str(solution)]
    for _ in range(2):
        assert main(clear) == 0
        assert report_fields(capsys.readouterr().out)["vertices"] == "3"
        assert main(["verify", "--graph", str(conflict_file),
                     "--solution", str(solution)]) == 0
        assert "vertices 3" in capsys.readouterr().out
        assert main(["clear", "--input", str(tmp_path / "nope.graph"),
                     "--objective", "tex", "--output", str(solution)]) == 2
        assert "error" in capsys.readouterr().err
        with pytest.raises(SystemExit):  # argparse rejects an unknown objective
            main(["clear", "--input", str(conflict_file), "--objective", "most",
                  "--output", str(solution)])
        capsys.readouterr()
        assert main(["decide", "--input", str(conflict_file), "--objective", "exchange-x",
                     "--x", "3"]) == 0
        assert capsys.readouterr().out.startswith("YES")
    assert _build_parser.cache_info().misses == 1  # the parsers are built once


def test_repeated_calls_keep_no_memory(tmp_path):
    # a tuple built from an iterator of unknown length is resized and, once
    # freed, stays on CPython's free list for its size, one more per call,
    # until a full collection empties the lists: so full collections are held
    # off while each command runs 200 more times after its warm-up, and only
    # the young generations are collected, to free cyclic garbage, before
    # each reading. No input holds a 20-item tuple, which CPython 3.11 keeps
    # however it was built, and max-size and approx are left out: scipy's
    # check_shape leaves two 2-item tuples per LAPJVsp solve
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 5 7\n1 -2 0\n-1 2 0\n2 3 0\n-3 4 0\n4 -5 0\n5 1 0\n3 -4 0\n")
    market, gadget, gmap = tmp_path / "m.graph", tmp_path / "g.graph", tmp_path / "g.map"
    m_sol, g_sol, out = tmp_path / "m.sol", tmp_path / "g.sol", tmp_path / "out"
    commands = [
        ["gen", "--vertices", "7", "--colors", "3", "--edge-prob", "0.4", "--seed", "3",
         "--output", str(market)],
        ["reduce", "--cnf", str(cnf), "--output", str(gadget), "--map", str(gmap)],
        *[["reduce", "--cnf", str(cnf), "--variant", variant, "--output", str(out),
           "--map", str(out)] for variant in ("balanced", "2pc")],
        ["clear", "--input", str(gadget), "--objective", "tex", "--output", str(g_sol)],
        *[["clear", "--input", str(market), "--objective", objective, "--output", str(m_sol)]
          for objective in ("tmaxex", "maxtex", "tex")],
        ["pullback", "--map", str(gmap), "--solution", str(g_sol)],
        ["verify", "--graph", str(market), "--solution", str(m_sol)],
        ["decide", "--input", str(market), "--objective", "tex"],
        ["oracle", "--graph", str(market), "--objective", "tmaxex"],
    ]

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    thresholds = gc.get_threshold()
    gc.set_threshold(*thresholds[:2], 1 << 30)
    tracemalloc.start()
    grown = {}
    try:
        for argv in commands:
            gc.collect()
            for _ in range(10):
                assert run(argv) == 0
            gc.collect(1)
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                run(argv)
            gc.collect(1)
            grown[" ".join(Path(arg).name for arg in argv)] = (
                tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
        gc.set_threshold(*thresholds)
    assert max(grown.values()) <= 16 * 1024, grown


def test_internal_failure_exit_code(tmp_path, capsys):
    # the search recurses once per chosen cycle: 1200 disjoint self-loops,
    # each of its own color, exhaust the stack
    n = 1200
    loops = tmp_path / "loops.graph"
    loops.write_text("".join(f"V v{i} c{i}\nE v{i} v{i}\n" for i in range(n)))
    assert main(["clear", "--input", str(loops), "--objective", "tex",
                 "--output", str(tmp_path / "out.sol")]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: internal failure: RecursionError")
    assert "Traceback" not in captured.err + captured.out
    assert len(captured.err.strip().splitlines()) == 1


def test_clear_answers_long_ring(tmp_path, capsys):
    # one cycle through 1200 vertices is found by an iterative walk
    n = 1200
    ring = tmp_path / "ring.graph"
    ring.write_text("".join(f"V v{i} c{i}\n" for i in range(n))
                    + "".join(f"E v{i} v{(i + 1) % n}\n" for i in range(n)))
    assert main(["clear", "--input", str(ring), "--objective", "tex",
                 "--output", str(tmp_path / "out.sol")]) == 0
    assert "vertices 1200\n" in capsys.readouterr().out


def test_verify_names_vertices_in_errors(conflict_file, tmp_path, capsys):
    shared = tmp_path / "shared.sol"
    shared.write_text("C b c a\nC d a\n")
    assert main(["verify", "--graph", str(conflict_file), "--solution", str(shared)]) == 2
    assert capsys.readouterr().err == "error: vertex a is in two cycles\n"
    looped = tmp_path / "looped.graph"
    looped.write_text(CONFLICT_GRAPH + "E a a\nE b a\n")
    walk = tmp_path / "walk.sol"
    walk.write_text("C a b a\n")
    assert main(["verify", "--graph", str(looped), "--solution", str(walk)]) == 2
    assert capsys.readouterr().err == "error: cycle a b a is not simple\n"
    assert main(["verify", "--graph", str(conflict_file), "--solution", str(walk)]) == 2
    assert capsys.readouterr().err == "error: line 1: no edge b -> a\n"


def test_reduce_accepts_satlib_percent_trailer(tmp_path, capsys):
    outputs = []
    for name, text in (("plain", DIMACS_A), ("uf", DIMACS_A + "%\n0\n\n")):
        cnf = tmp_path / f"{name}.cnf"
        cnf.write_text(text)
        graph, gmap = tmp_path / f"{name}.graph", tmp_path / f"{name}.map"
        assert main(["reduce", "--cnf", str(cnf), "--output", str(graph),
                     "--map", str(gmap)]) == 0
        outputs.append((capsys.readouterr().out, graph.read_text(), gmap.read_text()))
    assert outputs[0] == outputs[1]  # the trailer changes nothing


@pytest.mark.parametrize("argv", [
    "gen --vertices 1_0 --colors 2 --edge-prob 0.5 --seed 1 --output out",
    "gen --vertices 10 --colors ٢ --edge-prob 0.5 --seed 1 --output out",
    "gen --vertices 10 --colors 2 --edge-prob 0.5 --seed 1_0 --output out",
    "clear --input m.graph --objective tex --budget-nodes 1_000 --output out",
    "clear --input m.graph --objective tex --min-vertices ３ --output out",
    "decide --input m.graph --objective exchange-x --x ٣",
    "gen --vertices 10 --colors 2 --edge-prob ١ --seed 1 --output out",
    "gen --vertices 10 --colors 2 --edge-prob 0_5 --seed 1 --output out",
    "clear --input m.graph --objective tex --budget-secs 1_0 --output out",
    "decide --input m.graph --objective tex --budget-secs ５",
])
def test_integer_options_follow_the_format_integer_rule(argv, tmp_path, monkeypatch, capsys):
    # argparse's type=int or type=float would read all of these
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: barterclear "),
    (["--help"], "usage: barterclear "),
    (["clear", "-h"], "usage: barterclear clear "),
    (["verify", "--help"], "usage: barterclear verify "),
])
def test_help_exits_0_with_its_usage(argv, usage, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(usage)


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["--bogus"], ["-x", "clear"]])
def test_a_missing_or_unknown_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: barterclear ") and "Traceback" not in err


def test_an_unknown_option_after_a_command_exits_2(conflict_file, tmp_path, capsys):
    solution = tmp_path / "out.sol"
    with pytest.raises(SystemExit) as exc:
        main(["clear", "--input", str(conflict_file), "--objective", "tex",
              "--output", str(solution), "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert not solution.exists()


def test_main_reads_sys_argv_when_given_no_argv(conflict_file, tmp_path, monkeypatch, capsys):
    solution = tmp_path / "out.sol"
    monkeypatch.setattr("sys.argv", ["barterclear", "clear", "--input", str(conflict_file),
                                     "--objective", "tex", "--output", str(solution)])
    assert main() == 0
    assert report_fields(capsys.readouterr().out)["colors"] == "2"
    assert solution.exists()


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale with neither UTF-8 mode nor locale coercion; stdout
    # keeps the console's encoding, so it is set apart
    graph, solution = tmp_path / "m.graph", tmp_path / "m.sol"
    graph.write_bytes("V épice café\nV b thé\nE épice b\nE b épice\n".encode("utf-8"))
    src = str(Path(bc.__file__).parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cli = [sys.executable, "-m", "barterclear.cli"]
    run = subprocess.run(cli + ["clear", "--input", str(graph), "--objective", "tex",
                                "--output", str(solution)],
                         env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert solution.read_bytes() == "C épice b\n".encode("utf-8")
    run = subprocess.run(cli + ["verify", "--graph", str(graph), "--solution", str(solution)],
                         env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == b"vertices 2\ncolors 2 of 2\ntropical yes\n"


_GADGET_MAP = bc.serialize_gadget_map(bc.gadget_map(bc.build_sat_graph(
    bc.parse_dimacs(DIMACS_A), "plain")))
# (files, argv, exit code, a part of the error): each reader, on good and
# malformed files, with blank and comment lines before the fault
LINE_END_CASES = {
    "graph": ({"m.graph": "# market\n" + CONFLICT_GRAPH},
              ["clear", "--input", "m.graph", "--objective", "tex", "--output", "m.sol"], 0, ""),
    "graph-short-record": ({"m.graph": "V a red\n\nV b\nE a b\n"},
                           ["clear", "--input", "m.graph", "--objective", "tex",
                            "--output", "m.sol"], 2, "line 3: "),
    "graph-undeclared": ({"m.graph": "V a red # x\n\nE a b\n"},
                         ["decide", "--input", "m.graph", "--objective", "tex"], 2, "line 3: "),
    "wantlist": ({"w.txt": "alice a1 : b1\n\nbob b1 : a1\n"},
                 ["clear", "--input", "w.txt", "--wantlist", "--objective", "maxtex",
                  "--output", "w.sol"], 0, ""),
    "wantlist-no-colon": ({"w.txt": "alice a1 : b1\n# x\nbob b1 a1\n"},
                          ["clear", "--input", "w.txt", "--wantlist", "--objective", "tex",
                           "--output", "w.sol"], 2, "line 3: "),
    "wantlist-unknown": ({"w.txt": "\nalice a1 : b1\n"},
                         ["decide", "--input", "w.txt", "--wantlist", "--objective", "tex"],
                         2, "line 2: "),
    "dimacs": ({"a.cnf": "c comment\n" + DIMACS_A},
               ["reduce", "--cnf", "a.cnf", "--output", "a.graph", "--map", "a.map"], 0, ""),
    "dimacs-out-of-range": ({"a.cnf": "p cnf 2 1\n\n1 3 0\n"},
                            ["oracle", "--cnf", "a.cnf", "--sat"], 2, "line 3: "),
    "gadget-map": ({"a.map": _GADGET_MAP, "a.sol": "\nC 2 0\n"},
                   ["pullback", "--map", "a.map", "--solution", "a.sol"], 0, ""),
    "gadget-map-bad-var": ({"a.map": "\n" + _GADGET_MAP.replace("VAR 1 FALSE 0", "VAR 1 0"),
                            "a.sol": ""},
                           ["pullback", "--map", "a.map", "--solution", "a.sol"], 2, "line 3: "),
    "solution": ({"m.graph": CONFLICT_GRAPH, "m.sol": "# two\nC b c a\n\nC d a\n"},
                 ["verify", "--graph", "m.graph", "--solution", "m.sol"], 2,
                 "vertex a is in two cycles"),
    "solution-no-edge": ({"m.graph": CONFLICT_GRAPH, "m.sol": "\n\nC b a\n"},
                         ["verify", "--graph", "m.graph", "--solution", "m.sol"], 2,
                         "line 3: no edge b -> a"),
}


def _run_in(directory, files, argv, monkeypatch, capsys):
    """(exit code, stdout less the timing line, stderr, the bytes of every
    file the run wrote) of ``main(argv)`` run in ``directory`` on ``files``."""
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_bytes(text.encode())
    monkeypatch.chdir(directory)
    code = main(argv)
    captured = capsys.readouterr()
    out = [line for line in captured.out.splitlines() if not line.startswith("seconds ")]
    written = {path.name: path.read_bytes() for path in sorted(directory.iterdir())
               if path.name not in files}
    return code, out, captured.err, written


@pytest.mark.parametrize("case", LINE_END_CASES)
def test_every_reader_reads_crlf_and_cr_files_as_their_lf_copy(case, tmp_path, monkeypatch,
                                                               capsys):
    files, argv, code, error = LINE_END_CASES[case]
    runs = [_run_in(tmp_path / name, {file: text.replace("\n", end)
                                      for file, text in files.items()}, argv, monkeypatch, capsys)
            for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r"))]
    assert runs[0][0] == code and error in runs[0][2]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("case", LINE_END_CASES)
def test_every_reader_skips_a_leading_byte_order_mark(case, tmp_path, monkeypatch, capsys):
    files, argv, code, error = LINE_END_CASES[case]
    plain = _run_in(tmp_path / "plain", files, argv, monkeypatch, capsys)
    bom = _run_in(tmp_path / "bom", {file: "\ufeff" + text for file, text in files.items()},
                  argv, monkeypatch, capsys)
    assert plain[0] == code and error in plain[2]
    assert bom == plain


def test_the_writer_writes_the_whole_text_through_short_writes(tmp_path, monkeypatch):
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    path = tmp_path / "out.sol"
    text = "C épice b\n" * 30
    _write_output(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
    _write_output(str(path), "C a\n")  # a shorter rewrite leaves no tail
    assert path.read_bytes() == b"C a\n"
    if os.path.exists("/dev/null"):
        _write_output("/dev/null", text)
