"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All tolerances are exact (integer metrics); the two runtime criteria carry
their stated wall-clock bounds.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from time import monotonic

import barterclear as bc
from barterclear import Objective
from barterclear.cli import main
from conftest import CNF_A, CNF_B, corpus_cnfs, corpus_graphs, objective_value

GRAPH_CORPUS_SEED = 20260810
CNF_CORPUS_SEED = 31337
TWOCNF_CORPUS_SEED = 4242
MULTIPLICITY_CORPUS_SEED = 777


def _verdict(num: int, name: str, failures: list[str]) -> None:
    print(f"[acceptance {num}] {name}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:5])


def _metrics(g, s):
    return bc.validate_cycle_set(g, s)


def test_criterion_1_oracle_equivalence():
    failures: list[str] = []
    t0 = monotonic()
    for idx, g in enumerate(corpus_graphs(200, seed=GRAPH_CORPUS_SEED)):
        for objective in Objective:
            got = objective_value(objective, _metrics(g, bc.solve_with_stats(g, objective)[0]))
            want = objective_value(objective, _metrics(g, bc.brute_force_best(g, objective)))
            if got != want:
                failures.append(f"graph {idx} {objective.value}: {got} != {want}")
    elapsed = monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    print(f"[acceptance 1] 200 graphs x 4 objectives in {elapsed:.1f}s")
    _verdict(1, "oracle equivalence", failures)


def test_criterion_2_polynomial_solver_scale():
    failures: list[str] = []
    g = bc.gen_random(500, 50, 0.02, seed=2024)
    t0 = monotonic()
    s = bc.solve_max_size(g)
    elapsed = monotonic() - t0
    if elapsed >= 5.0:
        failures.append(f"solve took {elapsed:.2f}s >= 5s")
    try:
        bc.validate_cycle_set(g, s)
    except bc.CycleSetError as exc:
        failures.append(f"solution invalid: {exc}")
    print(f"[acceptance 2] n=500 solved in {elapsed:.2f}s")
    _verdict(2, "polynomial solver scale", failures)


def test_criterion_3_reduction_soundness():
    failures: list[str] = []
    for idx, cnf in enumerate(corpus_cnfs(200, seed=CNF_CORPUS_SEED)):
        art = bc.build_sat_graph(cnf)
        tex = bc.solve_with_stats(art.graph, Objective.MAX_COLORS)[0]
        if bc.is_tropical(art.graph, tex) != bc.is_satisfiable(cnf):
            failures.append(f"cnf {idx}: decide_tex disagrees with the SAT oracle")
    _verdict(3, "plain-gadget soundness", failures)


def test_criterion_4_balanced_soundness():
    failures: list[str] = []
    for idx, cnf in enumerate(corpus_cnfs(200, seed=CNF_CORPUS_SEED)):
        art = bc.build_sat_graph(cnf, "balanced")
        lengths = {len(c) for c in art.true_loops + art.false_loops}
        if len(lengths) != 1:
            failures.append(f"cnf {idx}: unequal loop lengths {sorted(lengths)}")
            continue
        tmaxex = bc.solve_with_stats(art.graph, Objective.MAX_COLORS_AMONG_MAX_VERTICES)[0]
        if bc.is_tropical(art.graph, tmaxex) != bc.is_satisfiable(cnf):
            failures.append(f"cnf {idx}: decide_tmaxex disagrees with the SAT oracle")
    _verdict(4, "balanced-gadget soundness", failures)


def test_criterion_5_measure_identity_and_l_reduction():
    failures: list[str] = []
    rng = random.Random(5)
    for idx, cnf in enumerate(corpus_cnfs(200, seed=CNF_CORPUS_SEED)):
        art = bc.build_sat_graph(cnf)
        chk = bc.l_reduction_check(art, bc.solve_with_stats(art.graph, Objective.MAX_COLORS)[0])
        if chk.opt_colors != 1 + chk.opt_sat:
            failures.append(f"cnf {idx}: colors {chk.opt_colors} != 1 + {chk.opt_sat}")
            continue
        if not (chk.opt_colors <= chk.alpha * chk.opt_sat):
            failures.append(f"cnf {idx}: alpha bound violated ({chk.opt_colors} > 3*{chk.opt_sat})")
        if chk.error_sat != chk.error_colors or not chk.holds():
            failures.append(f"cnf {idx}: error mismatch at the optimum")
        # absolute errors must agree for arbitrary full selections too
        if cnf.num_vars <= 4:
            assignments = [
                dict(enumerate(bits, start=1))
                for bits in product([False, True], repeat=cnf.num_vars)
            ]
        else:
            assignments = [
                {i: rng.random() < 0.5 for i in range(1, cnf.num_vars + 1)}
                for _ in range(16)
            ]
        for assignment in assignments:
            s = bc.full_selection(art, assignment)
            m_colors = _metrics(art.graph, s).color_count
            m_sat = bc.satisfied_count(cnf, bc.extract_assignment(art, s))
            if chk.opt_sat - m_sat != chk.opt_colors - m_colors:
                failures.append(f"cnf {idx}: E mismatch for {assignment}")
                break
    _verdict(5, "measure identity and error preservation", failures)


def test_criterion_6_two_per_color_identities():
    failures: list[str] = []
    for idx, cnf in enumerate(
        corpus_cnfs(200, seed=TWOCNF_CORPUS_SEED, max_vars=5, max_clause_len=2)
    ):
        art = bc.build_sat_graph(cnf, "2pc")
        if max(Counter(art.graph.vertex_colors).values()) > 2:
            failures.append(f"cnf {idx}: some color has more than 2 vertices")
            continue
        sizes = set()
        for bits in product([False, True], repeat=cnf.num_vars):
            s = bc.full_selection(art, dict(enumerate(bits, start=1)))
            sizes.add(_metrics(art.graph, s).vertex_count)
        if len(sizes) != 1:
            failures.append(f"cnf {idx}: full selections differ in size {sorted(sizes)}")
            continue
        tmaxex = bc.solve_with_stats(art.graph, Objective.MAX_COLORS_AMONG_MAX_VERTICES)[0]
        colors = _metrics(art.graph, tmaxex).color_count
        expected = cnf.num_vars + art.num_balance + bc.max_satisfiable(cnf)[0]
        if colors != expected:
            failures.append(f"cnf {idx}: tmaxex colors {colors} != {expected}")
    _verdict(6, "two-per-color identities", failures)


def test_criterion_7_approximation_bound():
    failures: list[str] = []
    rng = random.Random(MULTIPLICITY_CORPUS_SEED)
    for idx in range(200):
        j = rng.choice((2, 3))
        n = rng.randint(j, 9)
        colors = [v // j for v in range(n)]
        p = rng.choice((0.2, 0.35, 0.5))
        edges = [
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
        ]
        g = bc.build_graph(colors, edges)
        assert bc.per_color_bound(g) == j  # enforced by construction
        approx_colors = _metrics(g, bc.approx_jpc(g)[0]).color_count
        opt_colors = _metrics(g, bc.brute_force_best(g, Objective.MAX_COLORS)).color_count
        if approx_colors * j < opt_colors:
            failures.append(f"graph {idx}: {approx_colors} * {j} < {opt_colors}")
    for idx in range(50):
        n = rng.randint(1, 9)
        g = bc.gen_random(n, n, rng.choice((0.2, 0.35, 0.5)), seed=rng.randrange(2**30))
        approx_colors = _metrics(g, bc.approx_jpc(g)[0]).color_count
        tex_colors = _metrics(g, bc.solve_with_stats(g, Objective.MAX_COLORS)[0]).color_count
        if approx_colors != tex_colors:
            failures.append(f"rainbow graph {idx}: {approx_colors} != {tex_colors}")
    _verdict(7, "approximation bound", failures)


def test_criterion_8_fixture_regressions(g_conflict):
    failures: list[str] = []
    expected = {
        Objective.MAX_VERTICES: (3, 1),
        Objective.MAX_COLORS: (2, 2),
        Objective.MAX_COLORS_AMONG_MAX_VERTICES: (3, 1),
        Objective.MAX_VERTICES_AMONG_MAX_COLORS: (2, 2),
    }
    for objective, want in expected.items():
        solved = _metrics(g_conflict, bc.solve_with_stats(g_conflict, objective)[0])
        oracle = _metrics(g_conflict, bc.brute_force_best(g_conflict, objective))
        if solved != want:
            failures.append(f"{objective.value}: solver {solved} != {want}")
        if oracle != want:
            failures.append(f"{objective.value}: oracle {oracle} != {want}")
    tmaxex = bc.solve_with_stats(g_conflict, Objective.MAX_COLORS_AMONG_MAX_VERTICES)[0]
    if bc.is_tropical(g_conflict, tmaxex) is not False:
        failures.append("decide_tmaxex should be False")
    _verdict(8, "fixture regressions", failures)


def test_criterion_9_formats_and_cli_decisions(tmp_path, capsys):
    failures: list[str] = []

    fixtures = {
        "pair": bc.build_graph([0, 1], [(0, 1), (1, 0)], ["red", "blue"]),
        "conflict": bc.build_graph(
            [0, 0, 0, 1], [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)], ["red", "blue"]
        ),
        "gadget_a": bc.build_sat_graph(CNF_A).graph,
        "balanced_a": bc.build_sat_graph(CNF_A, "balanced").graph,
        "random": bc.gen_random(7, 3, 0.4, seed=9),
    }
    for name, g in fixtures.items():
        parsed = bc.parse_graph(bc.serialize_graph(g))
        if parsed != g:
            failures.append(f"{name}: graph round-trip mismatch")
        for objective in Objective:
            s = bc.solve_with_stats(g, objective)[0]
            if bc.parse_solution(bc.serialize_solution(g, s), g) != bc.canonical_cycle_set(g, s):
                failures.append(f"{name}/{objective.value}: solution round-trip mismatch")

    wantlist = "alice a1 : b1 b2\nbob b1 : a1\nbob b2 : b1\n"
    g = bc.parse_wantlist(wantlist)
    if bc.parse_wantlist(bc.serialize_wantlist(g)) != g:
        failures.append("want-list round-trip mismatch")

    # every solver-emitted solution passes `verify`
    graph_file = tmp_path / "conflict.graph"
    graph_file.write_text(bc.serialize_graph(fixtures["conflict"]))
    for objective in Objective:
        sol_file = tmp_path / f"{objective.value}.sol"
        if main(["clear", "--input", str(graph_file), "--objective", objective.value,
                 "--output", str(sol_file)]) != 0:
            failures.append(f"clear {objective.value} failed")
        if main(["verify", "--graph", str(graph_file), "--solution", str(sol_file)]) != 0:
            failures.append(f"verify rejected the {objective.value} solution")
    capsys.readouterr()

    # decision exit codes on a satisfiable and an unsatisfiable gadget
    for tag, dimacs, expected in (("A", "p cnf 2 2\n1 -2 0\n2 0\n", 0),
                                  ("B", "p cnf 1 2\n1 0\n-1 0\n", 1)):
        cnf_file = tmp_path / f"{tag}.cnf"
        cnf_file.write_text(dimacs)
        out_graph = tmp_path / f"{tag}.graph"
        out_map = tmp_path / f"{tag}.map"
        if main(["reduce", "--cnf", str(cnf_file), "--variant", "plain",
                 "--output", str(out_graph), "--map", str(out_map)]) != 0:
            failures.append(f"reduce {tag} failed")
        if main(["decide", "--input", str(out_graph), "--objective", "tex"]) != expected:
            failures.append(f"decide tex on gadget {tag}: wrong exit code")
        if main(["reduce", "--cnf", str(cnf_file), "--variant", "balanced",
                 "--output", str(out_graph), "--map", str(out_map)]) != 0:
            failures.append(f"reduce balanced {tag} failed")
        if main(["decide", "--input", str(out_graph), "--objective", "tmaxex"]) != expected:
            failures.append(f"decide tmaxex on balanced gadget {tag}: wrong exit code")
    capsys.readouterr()

    _verdict(9, "format round-trips and CLI decision semantics", failures)
