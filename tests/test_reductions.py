"""CNF-to-gadget-graph constructions and solution pullback."""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings

import barterclear as bc
from conftest import CNF_A, CNF_B, CNF_C, cnfs, corpus_cnfs

SINGLE = bc.CnfInstance(1, ((1,),))


def loop_lengths(art):
    return [len(c) for c in art.true_loops], [len(c) for c in art.false_loops]


def test_plain_gadget_cnf_a():
    art = bc.build_sat_graph(CNF_A)
    assert art.graph.vertex_count == 5  # 2 variable + 3 literal vertices
    assert art.graph.color_count == 3
    true_lens, false_lens = loop_lengths(art)
    assert true_lens == [2, 2]
    assert false_lens == [1, 2]


def test_plain_gadget_cnf_b():
    art = bc.build_sat_graph(CNF_B)
    assert art.graph.vertex_count == 3
    assert art.graph.color_count == 3
    assert loop_lengths(art) == ([2], [2])


def test_plain_gadget_single_clause():
    art = bc.build_sat_graph(SINGLE)
    assert art.graph.vertex_count == 2
    assert art.graph.color_count == 2
    assert bc.is_tropical(art.graph, bc.solve_tex(art.graph)) is True


def test_plain_gadget_vertex_count_formula():
    for cnf in (CNF_A, CNF_B, CNF_C, SINGLE):
        art = bc.build_sat_graph(cnf)
        literal_total = sum(len(c) for c in cnf.clauses)
        assert art.graph.vertex_count == cnf.num_vars + literal_total
        assert art.graph.color_count == cnf.num_clauses + 1


def test_loops_share_exactly_the_variable_vertex():
    for cnf in (CNF_A, CNF_B, CNF_C):
        art = bc.build_sat_graph(cnf)
        for i in range(1, cnf.num_vars + 1):
            t = set(bc.cycle_vertices(art.graph, art.true_loops[i - 1]))
            f = set(bc.cycle_vertices(art.graph, art.false_loops[i - 1]))
            assert t & f == {art.variable_vertex[i - 1]}


def test_literal_vertices_sit_on_matching_polarity_loops():
    art = bc.build_sat_graph(CNF_A)
    g = art.graph
    by_loop = {
        (i, tag): set(bc.cycle_vertices(g, loop)) - {art.variable_vertex[i - 1]}
        for i in range(1, 3)
        for tag, loop in (("T", art.true_loops[i - 1]), ("F", art.false_loops[i - 1]))
    }
    # clause 1 = (x1 v -x2): one color-1 vertex on x1's TRUE loop, one on x2's FALSE loop
    assert {g.vertex_colors[v] for v in by_loop[(1, "T")]} == {art.clause_colors[0]}
    assert {g.vertex_colors[v] for v in by_loop[(2, "F")]} == {art.clause_colors[0]}
    # clause 2 = (x2): one color-2 vertex on x2's TRUE loop
    assert {g.vertex_colors[v] for v in by_loop[(2, "T")]} == {art.clause_colors[1]}
    assert by_loop[(1, "F")] == set()


def test_tautological_clause_reaches_both_loops():
    art = bc.build_sat_graph(bc.CnfInstance(1, ((1, -1),)))
    assert len(art.true_loops[0]) == 2
    assert len(art.false_loops[0]) == 2


def test_duplicate_literals_collapse_to_one_vertex():
    art = bc.build_sat_graph(bc.CnfInstance(1, ((1, 1),)))
    assert art.graph.vertex_count == 2


def test_balance_cnf_a():
    art = bc.add_balance_vertices(bc.build_sat_graph(CNF_A))
    true_lens, false_lens = loop_lengths(art)
    assert true_lens == [3, 3] and false_lens == [3, 3]
    assert art.num_balance == 5  # 1 + 2 + 1 + 1
    assert art.graph.color_count == 4
    assert len(art.balance_colors) == 1


def test_balance_cnf_b():
    art = bc.add_balance_vertices(bc.build_sat_graph(CNF_B))
    assert loop_lengths(art) == ([3], [3])
    assert art.num_balance == 2
    assert art.graph.color_count == 4


def test_balance_single_clause():
    art = bc.add_balance_vertices(bc.build_sat_graph(SINGLE))
    assert loop_lengths(art) == ([3], [3])
    assert art.num_balance == 3  # 1 + 2


def test_balance_vertices_inserted_before_the_returning_edge():
    art = bc.add_balance_vertices(bc.build_sat_graph(CNF_A))
    g = art.graph
    for i in (1, 2):
        for loop in (art.true_loops[i - 1], art.false_loops[i - 1]):
            vertices = bc.cycle_vertices(g, loop)
            assert vertices[0] == art.variable_vertex[i - 1]
            balance_part = [v for v in vertices if v in set(art.balance_vertices)]
            # padding forms a contiguous tail right before the loop closes
            assert list(vertices[len(vertices) - len(balance_part):]) == balance_part


def test_balance_rejects_double_padding():
    art = bc.add_balance_vertices(bc.build_sat_graph(CNF_A))
    with pytest.raises(ValueError, match="already"):
        bc.add_balance_vertices(art)


def test_2pc_cnf_c():
    art = bc.build_2pc_graph(CNF_C)
    true_lens, false_lens = loop_lengths(art)
    assert true_lens == [3, 3] and false_lens == [3, 3]
    assert art.num_balance == 4
    assert art.graph.color_count == 8  # 2 variables + 2 clauses + 4 balance
    assert art.balance_cycle is not None and len(art.balance_cycle) == 4
    assert max(Counter(art.graph.vertex_colors).values()) <= 2


def test_2pc_single_clause():
    art = bc.build_2pc_graph(SINGLE)
    assert art.num_balance == 3
    assert art.graph.color_count == 5  # 1 + 1 + 3


def test_2pc_no_clauses():
    art = bc.build_2pc_graph(bc.CnfInstance(1, ()))
    assert art.num_balance == 2
    assert art.graph.color_count == 3  # 1 + 0 + 2


def test_2pc_rejects_wide_clauses():
    with pytest.raises(bc.ClauseTooLarge):
        bc.build_2pc_graph(bc.CnfInstance(3, ((1, 2, 3),)))


def test_extract_assignment_direct_readout():
    art = bc.build_sat_graph(CNF_A)
    both_true = bc.CycleSet((art.true_loops[0], art.true_loops[1]))
    assert bc.extract_assignment(art, both_true) == {1: True, 2: True}


def test_extract_assignment_defaults_to_true():
    art = bc.build_sat_graph(CNF_A)
    assert bc.extract_assignment(art, bc.EMPTY_CYCLE_SET) == {1: True, 2: True}


def test_extract_assignment_cnf_b():
    art = bc.build_sat_graph(CNF_B)
    picked = bc.CycleSet((art.true_loops[0],))
    assignment = bc.extract_assignment(art, picked)
    assert assignment == {1: True}
    assert bc.satisfied_count(CNF_B, assignment) == 1


def test_extract_assignment_tells_parallel_self_loops_apart():
    # x2 is in no clause: its TRUE and FALSE loops are parallel self-loops
    art = bc.build_sat_graph(bc.CnfInstance(2, ((1,),)))
    assert bc.extract_assignment(art, bc.full_selection(art, {1: True, 2: False})) == {
        1: True, 2: False}


def test_extract_assignment_finds_a_loop_written_from_any_vertex():
    # both loops of x2 run through a literal vertex; written from it, a loop
    # has other edge ids first but is the same cycle
    art = bc.build_sat_graph(CNF_A)
    for loop, value in ((art.true_loops[1], True), (art.false_loops[1], False)):
        ids = loop.edge_ids
        assert len(ids) > 1 and bc.cycle_vertices(art.graph, loop)[0] == art.variable_vertex[1]
        rotated = bc.Cycle(ids[1:] + ids[:1])
        assert bc.cycle_vertices(art.graph, rotated)[0] != art.variable_vertex[1]
        expected = {1: True, 2: value}
        assert bc.extract_assignment(art, bc.CycleSet((loop,))) == expected
        assert bc.extract_assignment(art, bc.CycleSet((rotated,))) == expected


def test_assignment_from_loops_rule():
    loops = [("t1", "f1"), ("t2", "f2"), ("t3", "f3")]
    assert bc.assignment_from_loops(loops, {"f2", "t3"}) == {1: True, 2: False, 3: True}
    assert bc.assignment_from_loops(loops, set()) == {1: True, 2: True, 3: True}
    assert bc.assignment_from_loops([], {"t1"}) == {}


def test_gadget_map_pullback_matches_extract_assignment():
    # a solution file pulled back through the map by vertex names gives the
    # assignment extract_assignment reads off the same file by edge ids
    rng = random.Random(3)
    for cnf in corpus_cnfs(20, seed=11, max_vars=4, max_clauses=4):
        for art in (bc.build_sat_graph(cnf), bc.add_balance_vertices(bc.build_sat_graph(cnf))):
            gm = bc.gadget_map(art)
            loops = [(frozenset(gm.true_loops[i]), frozenset(gm.false_loops[i]))
                     for i in range(1, gm.num_vars + 1)]
            for _ in range(4):
                picks = [rng.choice((None, art.true_loops[i], art.false_loops[i]))
                         for i in range(cnf.num_vars)]
                s = bc.CycleSet(tuple(c for c in picks if c is not None))
                text = bc.serialize_solution(art.graph, s)
                by_ids = bc.extract_assignment(art, bc.parse_solution(text, art.graph))
                chosen = {frozenset(c) for c in bc.parse_cycles(text)}
                assert bc.assignment_from_loops(loops, chosen) == by_ids


def test_extract_assignment_rejects_invalid_solution():
    art = bc.build_sat_graph(CNF_A)
    overlapping = bc.CycleSet((art.true_loops[0], art.false_loops[0]))
    with pytest.raises(bc.InvalidSolution):
        bc.extract_assignment(art, overlapping)
    with pytest.raises(bc.InvalidSolution):
        bc.clause_colors_covered(art, overlapping)


def test_clause_colors_covered_examples():
    art = bc.build_sat_graph(CNF_A)
    both_true = bc.CycleSet((art.true_loops[0], art.true_loops[1]))
    assert bc.clause_colors_covered(art, both_true) == 2
    assert bc.clause_colors_covered(art, bc.EMPTY_CYCLE_SET) == 0
    art_b = bc.build_sat_graph(CNF_B)
    assert bc.clause_colors_covered(art_b, bc.CycleSet((art_b.true_loops[0],))) == 1


def test_full_selection_covers_every_variable():
    art = bc.add_balance_vertices(bc.build_sat_graph(CNF_A))
    s = bc.full_selection(art, {1: True, 2: False})
    metrics = bc.validate_cycle_set(art.graph, s)
    assert metrics.vertex_count == 2 * 3  # two loops of length 3
    assert bc.extract_assignment(art, s) == {1: True, 2: False}


def test_l_reduction_check_at_the_optimum():
    art = bc.build_sat_graph(CNF_A)
    chk = bc.l_reduction_check(art, bc.solve_tex(art.graph))
    assert chk.opt_colors == 1 + chk.opt_sat
    assert chk.error_sat == chk.error_colors == 0
    assert chk.holds()


def test_l_reduction_errors_match_on_full_selections():
    for cnf in (CNF_A, CNF_B, CNF_C):
        art = bc.build_sat_graph(cnf)
        for values in product([False, True], repeat=cnf.num_vars):
            assignment = dict(enumerate(values, start=1))
            chk = bc.l_reduction_check(art, bc.full_selection(art, assignment))
            assert chk.error_sat == chk.error_colors
            assert chk.holds()


@settings(max_examples=40, deadline=None)
@given(cnf=cnfs(max_vars=3, max_clauses=4))
def test_reduction_soundness_small(cnf):
    art = bc.build_sat_graph(cnf)
    assert bc.is_tropical(art.graph, bc.solve_tex(art.graph)) == bc.is_satisfiable(cnf)


@settings(max_examples=40, deadline=None)
@given(cnf=cnfs(max_vars=3, max_clauses=4))
def test_balanced_soundness_small(cnf):
    art = bc.add_balance_vertices(bc.build_sat_graph(cnf))
    lengths = {len(c) for c in art.true_loops + art.false_loops}
    assert len(lengths) == 1
    assert bc.is_tropical(art.graph, bc.solve_tmaxex(art.graph)) == bc.is_satisfiable(cnf)


@settings(max_examples=40, deadline=None)
@given(cnf=cnfs(max_vars=3, max_clauses=4))
def test_measure_identity_small(cnf):
    art = bc.build_sat_graph(cnf)
    colors = bc.validate_cycle_set(art.graph, bc.solve_tex(art.graph)).color_count
    assert colors == 1 + bc.max_satisfiable(cnf)[0]


def test_pullback_bound_on_partial_selections():
    rng = random.Random(99)
    for cnf in corpus_cnfs(25, seed=7, max_vars=4, max_clauses=5):
        art = bc.build_sat_graph(cnf)
        for _ in range(6):
            cycles = []
            for i in range(1, cnf.num_vars + 1):
                pick = rng.choice(("skip", "true", "false"))
                if pick == "true":
                    cycles.append(art.true_loops[i - 1])
                elif pick == "false":
                    cycles.append(art.false_loops[i - 1])
            s = bc.CycleSet(tuple(cycles))
            covered = bc.clause_colors_covered(art, s)
            satisfied = bc.satisfied_count(cnf, bc.extract_assignment(art, s))
            assert satisfied >= covered
