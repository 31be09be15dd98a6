"""End-to-end command-line flows (in-process)."""

from __future__ import annotations

import pytest

import barterclear as bc
from barterclear.cli import main

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
    report = bc.parse_report(capsys.readouterr().out)
    assert report.objective == "max-size"
    assert main(["verify", "--graph", str(graph), "--solution", str(solution)]) == 0
    out = capsys.readouterr().out
    assert f"vertices {report.vertex_count}" in out


def test_clear_every_objective_self_verifies(conflict_file, tmp_path, capsys):
    expected = {"max-size": (3, 1), "tex": (2, 2), "tmaxex": (3, 1), "maxtex": (2, 2)}
    for objective, metrics in expected.items():
        solution = tmp_path / f"{objective}.sol"
        assert main(["clear", "--input", str(conflict_file), "--objective", objective,
                     "--method", "exact", "--output", str(solution)]) == 0
        report = bc.parse_report(capsys.readouterr().out)
        assert (report.vertex_count, report.color_count) == metrics


def test_clear_wantlist_and_approx(tmp_path, capsys):
    market = tmp_path / "wants.txt"
    market.write_text("alice a1 : b1\nbob b1 : a1\n")
    solution = tmp_path / "out.sol"
    assert main(["clear", "--input", str(market), "--wantlist", "--objective", "tex",
                 "--method", "approx", "--output", str(solution)]) == 0
    report = bc.parse_report(capsys.readouterr().out)
    assert report.method == "approx"
    assert report.guarantee == "1"  # one item per agent: the bound is exact
    assert report.color_count == 2


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
    report = bc.parse_report(capsys.readouterr().out)
    assert report.vertex_count == 0
    assert main(["clear", "--input", str(market), "--wantlist", "--objective", "max-size",
                 "--output", str(solution)]) == 0
    report = bc.parse_report(capsys.readouterr().out)
    assert report.vertex_count == 1  # self-trade admitted without the flag


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
    both.write_text("C 0 2\nC 0\n")  # the TRUE and the FALSE loop of x1
    for argv in (["verify", "--graph", str(graph)], ["pullback", "--map", str(gmap)]):
        assert main(argv + ["--solution", str(both)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: vertex 0 is in two cycles")
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
            report = bc.parse_report(capsys.readouterr().out)
            code = main(["decide", "--input", str(graph), "--objective", decision, "--x", "3"])
            lines = capsys.readouterr().out.splitlines()
            assert lines[1:] == [f"vertices {report.vertex_count}",
                                 f"colors {report.color_count} of {report.total_colors}"]
            if decision.endswith("-x"):
                expected = report.vertex_count >= 3
            else:
                expected = report.color_count == report.total_colors
            assert (lines[0], code) == (("YES", 0) if expected else ("NO", 1))


def test_oracle_graph(conflict_file, capsys):
    assert main(["oracle", "--graph", str(conflict_file), "--objective", "maxtex"]) == 0
    out = capsys.readouterr().out
    assert "vertices 2" in out and "colors 2 of 2" in out
    assert "C a d" in out


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
        assert bc.parse_report(capsys.readouterr().out).vertex_count == 3
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
