"""Exact color-aware solvers against the exhaustive oracle."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings

import barterclear as bc
from barterclear import Objective
from conftest import CNF_A, CNF_B, objective_value, small_graphs

EMPTY = bc.build_graph([], [])


def metrics_of(g, s):
    return bc.validate_cycle_set(g, s)


def test_solve_tex_conflict(g_conflict):
    assert metrics_of(g_conflict, bc.solve_tex(g_conflict)) == (2, 2)


def test_solve_tex_pair(g_pair):
    s = bc.solve_tex(g_pair)
    assert metrics_of(g_pair, s) == (2, 2)


def test_solve_tex_empty():
    assert bc.solve_tex(EMPTY) == bc.EMPTY_CYCLE_SET


def test_decide_tex(g_pair, g_conflict):
    assert bc.is_tropical(g_pair, bc.solve_tex(g_pair)) is True
    # the 2-cycle a,d covers both red and blue
    assert bc.is_tropical(g_conflict, bc.solve_tex(g_conflict)) is True
    # unsatisfiable formula: its gadget graph cannot cover all clause colors
    contradiction = bc.build_sat_graph(CNF_B).graph
    assert bc.is_tropical(contradiction, bc.solve_tex(contradiction)) is False
    assert bc.is_satisfiable(CNF_B) is False


def test_solve_tmaxex_conflict(g_conflict):
    s = bc.solve_tmaxex(g_conflict)
    assert metrics_of(g_conflict, s) == (3, 1)
    # the 3-vertex optimum is unique
    assert bc.cycle_vertices(g_conflict, s.cycles[0]) == (0, 1, 2)


def test_solve_tmaxex_pair(g_pair):
    assert metrics_of(g_pair, bc.solve_tmaxex(g_pair)) == (2, 2)


def test_solve_tmaxex_tie_prefers_colors(g_tie):
    s = bc.solve_tmaxex(g_tie)
    assert metrics_of(g_tie, s) == (2, 2)
    assert bc.cycle_vertices(g_tie, s.cycles[0]) == (0, 2)


def test_decide_tmaxex(g_pair, g_conflict):
    # the only vertex-maximal clearing of g_conflict misses blue
    assert bc.is_tropical(g_conflict, bc.solve_tmaxex(g_conflict)) is False
    assert bc.is_tropical(g_pair, bc.solve_tmaxex(g_pair)) is True
    balanced = bc.add_balance_vertices(bc.build_sat_graph(CNF_A))
    assert bc.is_tropical(balanced.graph, bc.solve_tmaxex(balanced.graph)) is True
    assert bc.is_satisfiable(CNF_A) is True


def test_solve_maxtex_conflict(g_conflict):
    s = bc.solve_maxtex(g_conflict)
    assert metrics_of(g_conflict, s) == (2, 2)
    assert bc.cycle_vertices(g_conflict, s.cycles[0]) == (0, 3)


def test_solve_maxtex_pair(g_pair):
    assert metrics_of(g_pair, bc.solve_maxtex(g_pair)) == (2, 2)


def test_solve_maxtex_self_loop_and_isolated_vertex():
    g = bc.build_graph([0, 1], [(0, 0)], ["red", "blue"])
    s = bc.solve_maxtex(g)
    assert metrics_of(g, s) == (1, 1)
    assert bc.cycle_vertices(g, s.cycles[0]) == (0,)


def test_brute_force_fixture_values(g_conflict):
    assert metrics_of(g_conflict, bc.brute_force_best(g_conflict, Objective.MAX_VERTICES)) == (3, 1)
    assert metrics_of(g_conflict, bc.brute_force_best(g_conflict, Objective.MAX_COLORS)) == (2, 2)
    assert bc.brute_force_best(EMPTY, Objective.MAX_COLORS) == bc.EMPTY_CYCLE_SET


def test_brute_force_lexicographic_tie_break(g_tie):
    # both 2-cycles are vertex-maximal; (r1, r2) is lexicographically least
    s = bc.brute_force_best(g_tie, Objective.MAX_VERTICES)
    assert bc.cycle_vertices(g_tie, s.cycles[0]) == (0, 1)


def test_brute_force_too_large():
    g = bc.build_graph([0] * 13, [])
    with pytest.raises(bc.TooLarge):
        bc.brute_force_best(g, Objective.MAX_COLORS)


def test_node_budget_exceeded(g_conflict):
    with pytest.raises(bc.BudgetExceeded, match="node limit"):
        bc.solve_tex(g_conflict, bc.SearchBudget(node_limit=2))


def test_time_budget_exceeded():
    # a dense rainbow market: the search takes thousands of nodes, enough to
    # reach a time check
    g = bc.gen_random(16, 16, 0.3, seed=1)
    _, stats = bc.solve_with_stats(g, Objective.MAX_COLORS)
    assert stats.nodes > 2048, "instance must be big enough to reach a time check"
    with pytest.raises(bc.BudgetExceeded, match="time limit"):
        bc.solve_tex(g, bc.SearchBudget(time_limit=0.0))


def test_budget_rejects_limits_it_cannot_keep():
    for limits in ({"node_limit": -5}, {"time_limit": -1.0}, {"time_limit": float("nan")}):
        with pytest.raises(ValueError, match="limit must not be negative"):
            bc.SearchBudget(**limits)
    bc.SearchBudget(node_limit=0, time_limit=0.0)
    assert bc.solve_tex(bc.build_graph([0], []), bc.SearchBudget(time_limit=float("inf"))) == (
        bc.EMPTY_CYCLE_SET)


def test_determinism(g_tie):
    twin = bc.build_graph([0, 0, 1], [(0, 1), (1, 0), (0, 2), (2, 0)], ["red", "blue"])
    for solve in (bc.solve_tex, bc.solve_tmaxex, bc.solve_maxtex):
        assert solve(g_tie) == solve(twin)


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_solvers_match_oracle_metrics(g):
    pairs = [
        (bc.solve_max_size(g), Objective.MAX_VERTICES),
        (bc.solve_tex(g), Objective.MAX_COLORS),
        (bc.solve_tmaxex(g), Objective.MAX_COLORS_AMONG_MAX_VERTICES),
        (bc.solve_maxtex(g), Objective.MAX_VERTICES_AMONG_MAX_COLORS),
    ]
    for solved, objective in pairs:
        want = objective_value(objective, metrics_of(g, bc.brute_force_best(g, objective)))
        got = objective_value(objective, metrics_of(g, solved))
        assert got == want, objective


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_solvers_return_the_oracle_cycle_set(g):
    # both return the lexicographically least canonical optimum
    for objective in (Objective.MAX_COLORS, Objective.MAX_COLORS_AMONG_MAX_VERTICES,
                      Objective.MAX_VERTICES_AMONG_MAX_COLORS):
        assert bc.solve_with_stats(g, objective)[0] == bc.brute_force_best(g, objective)


# a planted 3-CNF (5 variables, 21 clauses): its plain and balanced gadgets
# defeat a bound that ignores whether the chosen edges close into cycles
FAULT_CNF = bc.CnfInstance(5, (
    (1, 3, 5), (3, 2, 1), (4, -5, -3), (-3, 1, 2), (-4, 1, -2), (1, -4, -3), (2, -3, 1),
    (-3, -5, -1), (-5, -1, -3), (4, 2, -5), (1, 5, -3), (-2, -1, 5), (1, 5, -2),
    (-2, -1, 3), (-3, 4, 1), (-4, -2, 1), (5, -3, -1), (-4, 3, -5), (4, 5, 3),
    (4, 5, 1), (3, 4, -1),
))


def test_fault_gadgets_are_cleared_tropically():
    plain = bc.build_sat_graph(FAULT_CNF)
    for art in (plain, bc.add_balance_vertices(plain)):
        s = bc.solve_tex(art.graph)
        assert bc.is_tropical(art.graph, s)
        assignment = bc.extract_assignment(art, s)
        assert bc.satisfied_count(FAULT_CNF, assignment) == FAULT_CNF.num_clauses


def test_color_search_leaves_no_garbage():
    g = bc.gen_random(16, 5, 0.3, seed=3)
    gc.collect()
    gc.disable()
    try:
        for objective in (Objective.MAX_COLORS, Objective.MAX_COLORS_AMONG_MAX_VERTICES,
                          Objective.MAX_VERTICES_AMONG_MAX_COLORS):
            bc.solve_with_stats(g, objective)
            assert gc.collect() == 0, objective
    finally:
        gc.enable()


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_chaining_and_ordering_identities(g):
    max_size = metrics_of(g, bc.solve_max_size(g))
    tex = metrics_of(g, bc.solve_tex(g))
    tmaxex = metrics_of(g, bc.solve_tmaxex(g))
    maxtex = metrics_of(g, bc.solve_maxtex(g))
    assert tmaxex.vertex_count == max_size.vertex_count
    assert maxtex.color_count == tex.color_count
    assert tex.color_count >= tmaxex.color_count
    assert tmaxex.vertex_count >= maxtex.vertex_count


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_decision_forms_follow_from_optima(g):
    k = g.color_count
    tex_tropical = bc.is_tropical(g, bc.solve_tex(g))
    for solve, objective in ((bc.solve_tex, Objective.MAX_COLORS),
                             (bc.solve_tmaxex, Objective.MAX_COLORS_AMONG_MAX_VERTICES)):
        oracle = metrics_of(g, bc.brute_force_best(g, objective))
        assert bc.is_tropical(g, solve(g)) == (oracle.color_count == k)
    # a color-primary optimum answers the tropicality question by inspection
    maxtex_tropical = metrics_of(g, bc.solve_maxtex(g)).color_count == k
    assert maxtex_tropical == tex_tropical
