"""Exact color-aware solvers against the exhaustive oracle."""

from __future__ import annotations

import gc
import random
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import barterclear as bc
import barterclear.assignment
import barterclear.exact
from barterclear import Objective
from barterclear.assignment import max_size_successors
from barterclear.exact import _KEYS, _CycleSearch, _max_matching, _max_size, _strong_components
from conftest import CNF_A, CNF_B, objective_value, small_graphs

EMPTY = bc.build_graph([], [])
# the three objectives the cycle search answers
COLOR_OBJECTIVES = [objective for objective in Objective if objective is not Objective.MAX_VERTICES]


def metrics_of(g, s):
    return bc.validate_cycle_set(g, s)


def test_solve_tex_conflict(g_conflict):
    s = bc.solve_with_stats(g_conflict, Objective.MAX_COLORS)[0]
    assert metrics_of(g_conflict, s) == (2, 2)


def test_solve_tex_pair(g_pair):
    s = bc.solve_with_stats(g_pair, Objective.MAX_COLORS)[0]
    assert metrics_of(g_pair, s) == (2, 2)


def test_solve_tex_empty():
    assert bc.solve_with_stats(EMPTY, Objective.MAX_COLORS)[0] == bc.CycleSet()


def test_decide_tex(g_pair, g_conflict):
    assert bc.is_tropical(g_pair, bc.solve_with_stats(g_pair, Objective.MAX_COLORS)[0]) is True
    # the 2-cycle a,d covers both red and blue
    s = bc.solve_with_stats(g_conflict, Objective.MAX_COLORS)[0]
    assert bc.is_tropical(g_conflict, s) is True
    # unsatisfiable formula: its gadget graph cannot cover all clause colors
    contradiction = bc.build_sat_graph(CNF_B).graph
    s = bc.solve_with_stats(contradiction, Objective.MAX_COLORS)[0]
    assert bc.is_tropical(contradiction, s) is False
    assert bc.is_satisfiable(CNF_B) is False


def test_solve_tmaxex_conflict(g_conflict):
    s = bc.solve_with_stats(g_conflict, Objective.MAX_COLORS_AMONG_MAX_VERTICES)[0]
    assert metrics_of(g_conflict, s) == (3, 1)
    # the 3-vertex optimum is unique
    assert bc.cycle_vertices(g_conflict, s.cycles[0]) == (0, 1, 2)


def test_solve_tmaxex_pair(g_pair):
    s = bc.solve_with_stats(g_pair, Objective.MAX_COLORS_AMONG_MAX_VERTICES)[0]
    assert metrics_of(g_pair, s) == (2, 2)


def test_solve_tmaxex_tie_prefers_colors(g_tie):
    s = bc.solve_with_stats(g_tie, Objective.MAX_COLORS_AMONG_MAX_VERTICES)[0]
    assert metrics_of(g_tie, s) == (2, 2)
    assert bc.cycle_vertices(g_tie, s.cycles[0]) == (0, 2)


def test_decide_tmaxex(g_pair, g_conflict):
    # the only vertex-maximal clearing of g_conflict misses blue
    tmaxex = Objective.MAX_COLORS_AMONG_MAX_VERTICES
    assert bc.is_tropical(g_conflict, bc.solve_with_stats(g_conflict, tmaxex)[0]) is False
    assert bc.is_tropical(g_pair, bc.solve_with_stats(g_pair, tmaxex)[0]) is True
    balanced = bc.build_sat_graph(CNF_A, "balanced")
    assert bc.is_tropical(balanced.graph, bc.solve_with_stats(balanced.graph, tmaxex)[0]) is True
    assert bc.is_satisfiable(CNF_A) is True


def test_solve_maxtex_conflict(g_conflict):
    s = bc.solve_with_stats(g_conflict, Objective.MAX_VERTICES_AMONG_MAX_COLORS)[0]
    assert metrics_of(g_conflict, s) == (2, 2)
    assert bc.cycle_vertices(g_conflict, s.cycles[0]) == (0, 3)


def test_solve_maxtex_pair(g_pair):
    s = bc.solve_with_stats(g_pair, Objective.MAX_VERTICES_AMONG_MAX_COLORS)[0]
    assert metrics_of(g_pair, s) == (2, 2)


def test_solve_maxtex_self_loop_and_isolated_vertex():
    g = bc.build_graph([0, 1], [(0, 0)], ["red", "blue"])
    s = bc.solve_with_stats(g, Objective.MAX_VERTICES_AMONG_MAX_COLORS)[0]
    assert metrics_of(g, s) == (1, 1)
    assert bc.cycle_vertices(g, s.cycles[0]) == (0,)


def test_brute_force_fixture_values(g_conflict):
    assert metrics_of(g_conflict, bc.brute_force_best(g_conflict, Objective.MAX_VERTICES)) == (3, 1)
    assert metrics_of(g_conflict, bc.brute_force_best(g_conflict, Objective.MAX_COLORS)) == (2, 2)
    assert bc.brute_force_best(EMPTY, Objective.MAX_COLORS) == bc.CycleSet()


def test_brute_force_lexicographic_tie_break(g_tie):
    # both 2-cycles are vertex-maximal; (r1, r2) is lexicographically least
    s = bc.brute_force_best(g_tie, Objective.MAX_VERTICES)
    assert bc.cycle_vertices(g_tie, s.cycles[0]) == (0, 1)


def test_brute_force_too_large():
    g = bc.build_graph([0] * 13, [])
    with pytest.raises(bc.TooLarge):
        bc.brute_force_best(g, Objective.MAX_COLORS)


def test_node_budget_exceeded(g_conflict):
    for objective in COLOR_OBJECTIVES:
        with pytest.raises(bc.BudgetExceeded, match="node limit"):
            bc.solve_with_stats(g_conflict, objective, bc.SearchBudget(node_limit=2))


def test_time_budget_exceeded():
    # a dense rainbow market: the search takes thousands of nodes, enough to
    # reach a time check
    g = bc.gen_random(16, 16, 0.3, seed=1)
    for objective in COLOR_OBJECTIVES:
        _, stats = bc.solve_with_stats(g, objective)
        assert stats.nodes > 2048, f"{objective}: instance must be big enough to reach a time check"
        with pytest.raises(bc.BudgetExceeded, match="time limit"):
            bc.solve_with_stats(g, objective, bc.SearchBudget(time_limit=0.0))


def test_budget_rejects_limits_it_cannot_keep():
    for limits in ({"node_limit": -5}, {"time_limit": -1.0}, {"time_limit": float("nan")}):
        with pytest.raises(ValueError, match="limit must not be negative"):
            bc.SearchBudget(**limits)
    bc.SearchBudget(node_limit=0, time_limit=0.0)
    unlimited = bc.SearchBudget(time_limit=float("inf"))
    assert bc.solve_with_stats(bc.build_graph([0], []), Objective.MAX_COLORS, unlimited)[0] == (
        bc.CycleSet())


def test_determinism(g_tie):
    twin = bc.build_graph([0, 0, 1], [(0, 1), (1, 0), (0, 2), (2, 0)], ["red", "blue"])
    for objective in COLOR_OBJECTIVES:
        assert bc.solve_with_stats(g_tie, objective)[0] == bc.solve_with_stats(twin, objective)[0]


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_solvers_match_oracle_metrics(g):
    for objective in Objective:
        want = objective_value(objective, metrics_of(g, bc.brute_force_best(g, objective)))
        got = objective_value(objective, metrics_of(g, bc.solve_with_stats(g, objective)[0]))
        assert got == want, objective


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_solvers_return_the_oracle_cycle_set(g):
    # both return the lexicographically least canonical optimum
    for objective in COLOR_OBJECTIVES:
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
    for variant in ("plain", "balanced"):
        art = bc.build_sat_graph(FAULT_CNF, variant)
        s = bc.solve_with_stats(art.graph, Objective.MAX_COLORS)[0]
        assert bc.is_tropical(art.graph, s)
        assignment = bc.extract_assignment(art, s)
        assert bc.satisfied_count(FAULT_CNF, assignment) == FAULT_CNF.num_clauses


def test_fault_gadget_node_counts():
    # before the search trimmed its free set and kept to strong components:
    # plain 2755 / 13136 / 12825, balanced 6777 for all three objectives
    want = {"plain": [239, 371, 437], "balanced": [443, 365, 443]}
    for variant, counts in want.items():
        g = bc.build_sat_graph(FAULT_CNF, variant).graph
        assert [bc.solve_with_stats(g, objective)[1].nodes
                for objective in COLOR_OBJECTIVES] == counts, variant


def reachable(g, sources, inside):
    """The vertices of ``inside`` reached from ``sources`` along edges
    that stay in ``inside``, by breadth-first search."""
    seen, frontier = set(), [v for v in sources if v in inside]
    while frontier:
        seen.update(frontier)
        frontier = {w for v in frontier for w in g.out_neighbors[v]
                    if w in inside and w not in seen}
    return seen


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_strong_components_are_mutual_reachability(g):
    everything = set(range(g.vertex_count))
    reach = [reachable(g, [v], everything) for v in everything]
    label = _strong_components(g.out_neighbors)
    for u in everything:
        for v in everything:
            assert (label[u] == label[v]) == (v in reach[u] and u in reach[v]), (u, v)


@settings(max_examples=120, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_trim_keeps_every_cycle_of_the_set(g, data):
    n = g.vertex_count
    search = _CycleSearch(g, bc.SearchBudget(), _KEYS[Objective.MAX_COLORS])
    subset = set(data.draw(st.sets(st.integers(0, max(n - 1, 0))))) & set(range(n))
    trimmed = search.trim(sum(1 << v for v in subset) & search.on_cycle, range(n))
    kept = {v for v in range(n) if trimmed >> v & 1}
    assert kept <= subset
    for v in subset:
        if v in reachable(g, g.out_neighbors[v], subset):  # v closes a cycle in the subset
            assert v in kept, v
    for v in kept:  # nothing left to trim
        assert set(g.out_neighbors[v]) & kept and {u for u in kept if v in g.out_neighbors[u]}
    # a trimmed set that loses vertices needs a look only around them
    gone = data.draw(st.sets(st.sampled_from(sorted(kept)))) if kept else set()
    rest = trimmed & ~sum(1 << v for v in gone)
    assert search.trim(rest, gone) == search.trim(rest, range(n))


def traded(g):
    """v* by the assignment layer's LAPJVsp solve, the reference."""
    return sum(v >= 0 for v in max_size_successors(g))


def search_cap(g, objective=Objective.MAX_COLORS_AMONG_MAX_VERTICES):
    return _CycleSearch(g, bc.SearchBudget(), _KEYS[objective]).v_cap


def matching_sizes(g):
    """The size of ``_max_matching`` and of scipy's maximum matching of
    vertices to successors."""
    mate, _ = _max_matching(g.out_neighbors)
    rows = [v for v, ws in enumerate(g.out_neighbors) for _ in ws]
    cols = [w for ws in g.out_neighbors for w in ws]
    n = g.vertex_count
    successors = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    reference = maximum_bipartite_matching(successors, perm_type="column")
    return n - mate.count(-1), int((reference >= 0).sum())


@settings(max_examples=150, deadline=None)
@given(g=small_graphs())
def test_search_cap_is_the_max_size_optimum(g):
    # self-loops, parallel edges and graphs with no cycle all occur here
    assert search_cap(g) == search_cap(g, Objective.MAX_VERTICES_AMONG_MAX_COLORS) == traded(g)
    # the count needs no strong components, only successor lists
    assert _max_size(g.out_neighbors) == traded(g)
    ours, scipys = matching_sizes(g)
    assert ours == scipys


def test_search_cap_on_seeded_graphs_and_fault_gadgets():
    rng = random.Random(11)
    graphs = [bc.build_sat_graph(FAULT_CNF, variant).graph for variant in ("plain", "balanced")]
    for _ in range(300):
        n, k = rng.randint(1, 40), rng.randint(1, 5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        graphs.append(bc.build_graph([v % k for v in range(n)], pairs))
    for g in graphs:
        assert search_cap(g) == traded(g)
        ours, scipys = matching_sizes(g)
        assert ours == scipys


def test_search_cap_escapes_the_greedy_trap():
    # vertex 0 takes itself first, which leaves vertex 1 nothing: only an
    # augmenting path finds the 2-cycle
    g = bc.build_graph([0, 0], [(0, 0), (0, 1), (1, 0)])
    assert matching_sizes(g) == (2, 2)
    assert search_cap(g) == traded(g) == 2


def test_search_cap_follows_a_long_augmenting_path():
    # each vertex but the last takes itself first, and the last wants only
    # vertex 0: the one augmenting path runs through every vertex, deeper
    # than Python's recursion limit
    n = 3000
    edges = [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    g = bc.build_graph([0] * n, edges)
    start = perf_counter()
    cap = search_cap(g)
    assert perf_counter() - start < 0.5
    assert cap == traded(g) == n


def test_search_cap_finishes_a_matching_that_is_not_a_set_of_cycles():
    # two triangles sharing vertex 2: a maximum matching of vertices to
    # successors matches four, but disjoint cycles cover only three
    g = bc.build_graph([0, 0, 1, 1, 1], [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    mate, _ = _max_matching(g.out_neighbors)
    assert sum(w >= 0 for w in mate) == 4
    assert search_cap(g) == traded(g) == 3


def test_search_cap_scales_to_markets():
    # a 5000-item market with 5 distinct wants per item, on a 2-vCPU VM: one
    # augmenting search per item, each item reached taking a free successor
    # first, counts v* in 0.11-0.20 s, against 0.3-0.6 s for a greedy pass
    # then plain augmenting paths, about 0.05 s with Hopcroft-Karp's phases,
    # and seconds for finishing a greedy matching by shortest augmenting
    # paths alone
    rng = random.Random(5)
    n = 5000
    edges = [(u, v + (v >= u)) for u in range(n) for v in rng.sample(range(n - 1), 5)]
    g = bc.build_graph([v % 250 for v in range(n)], edges)
    succ = _CycleSearch(g, bc.SearchBudget(), _KEYS[Objective.MAX_COLORS]).succ
    start = perf_counter()
    count = _max_size(succ)
    assert perf_counter() - start < 0.4
    assert count == traded(g)


def test_market_node_counts_stay_pinned():
    # 40 seeded markets shaped like the colors-market benchmark's: 17 items
    # of 5 agents, 2 distinct wants per item.  The totals move only when the
    # search's pruning or visit order does; with the vertex cap loosened to
    # the matching size alone, tmaxex and maxtex read 5958.
    rng = random.Random(2026)
    graphs = []
    for _ in range(40):
        agents = [v % 5 for v in range(17)]
        rng.shuffle(agents)
        edges = [(u, v + (v >= u)) for u in range(17) for v in rng.sample(range(16), 2)]
        graphs.append(bc.build_graph(agents, edges))
    totals = {objective.value: sum(bc.solve_with_stats(g, objective)[1].nodes for g in graphs)
              for objective in COLOR_OBJECTIVES}
    assert totals == {"tex": 881, "tmaxex": 4756, "maxtex": 4756}


def test_tex_does_not_count_the_vertex_cap(monkeypatch, g_conflict):
    # tex's key ignores vertices, so the search needs no v*
    def refuse(succ):
        raise AssertionError("tex counted v*")

    monkeypatch.setattr(barterclear.exact, "_max_size", refuse)
    g = bc.build_sat_graph(FAULT_CNF, "balanced").graph
    for graph in (g_conflict, g):
        assert bc.is_tropical(graph, bc.solve_with_stats(graph, Objective.MAX_COLORS)[0])


def test_color_objectives_leave_the_assignment_layer_alone(monkeypatch, g_conflict):
    graphs = [g_conflict, bc.gen_random(17, 5, 0.3, seed=4)]
    before = [[bc.solve_with_stats(g, objective)[0] for objective in COLOR_OBJECTIVES]
              for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("the assignment layer was called")

    monkeypatch.setattr(barterclear.assignment, "max_size_successors", refuse)
    monkeypatch.setattr(barterclear.assignment, "min_weight_full_bipartite_matching", refuse)
    monkeypatch.setattr(barterclear.exact, "solve_max_size", refuse)
    assert [[bc.solve_with_stats(g, objective)[0] for objective in COLOR_OBJECTIVES]
            for g in graphs] == before


def test_long_chain_sets_up_in_linear_time():
    # a 3000-vertex path into a 2-cycle: quadratic components or a
    # recursive walk of the path would show here
    n = 3000
    g = bc.build_graph(list(range(n)), [(v, v + 1) for v in range(n - 1)] + [(n - 1, n - 2)])
    start = perf_counter()
    s, _ = bc.solve_with_stats(g, Objective.MAX_COLORS)
    assert perf_counter() - start < 0.5
    assert [bc.cycle_vertices(g, c) for c in s.cycles] == [(n - 2, n - 1)]


def test_color_search_leaves_no_garbage():
    g = bc.gen_random(16, 5, 0.3, seed=3)
    gc.collect()
    gc.disable()
    try:
        for objective in COLOR_OBJECTIVES:
            bc.solve_with_stats(g, objective)
            assert gc.collect() == 0, objective
    finally:
        gc.enable()


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_chaining_and_ordering_identities(g):
    max_size = metrics_of(g, bc.solve_max_size(g))
    tex = metrics_of(g, bc.solve_with_stats(g, Objective.MAX_COLORS)[0])
    tmaxex = metrics_of(g, bc.solve_with_stats(g, Objective.MAX_COLORS_AMONG_MAX_VERTICES)[0])
    maxtex = metrics_of(g, bc.solve_with_stats(g, Objective.MAX_VERTICES_AMONG_MAX_COLORS)[0])
    assert tmaxex.vertex_count == max_size.vertex_count
    assert maxtex.color_count == tex.color_count
    assert tex.color_count >= tmaxex.color_count
    assert tmaxex.vertex_count >= maxtex.vertex_count


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_decision_forms_follow_from_optima(g):
    k = g.color_count
    tex_tropical = bc.is_tropical(g, bc.solve_with_stats(g, Objective.MAX_COLORS)[0])
    for objective in (Objective.MAX_COLORS, Objective.MAX_COLORS_AMONG_MAX_VERTICES):
        oracle = metrics_of(g, bc.brute_force_best(g, objective))
        assert bc.is_tropical(g, bc.solve_with_stats(g, objective)[0]) == (oracle.color_count == k)
    # a color-primary optimum answers the tropicality question by inspection
    maxtex = bc.solve_with_stats(g, Objective.MAX_VERTICES_AMONG_MAX_COLORS)[0]
    maxtex_tropical = metrics_of(g, maxtex).color_count == k
    assert maxtex_tropical == tex_tropical
