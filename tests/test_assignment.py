"""Assignment reduction and the polynomial max-vertex solver."""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np
from hypothesis import given, settings
from scipy.optimize import linear_sum_assignment

import barterclear as bc
from barterclear.assignment import EDGE_COST, KEEP_COST, assignment_costs, max_size_successors
from conftest import small_graphs


def costs_of(g: bc.ColoredDigraph) -> dict[tuple[int, int], int]:
    """The stored entries of the sparse cost matrix, as {(u, v): cost}."""
    m = assignment_costs(g).tocoo()
    return {(int(u), int(v)): int(c) for u, v, c in zip(m.row, m.col, m.data)}


def traded(successor: list[int]) -> int:
    return sum(1 for v in successor if v >= 0)


def traded_by_permutations(g: bc.ColoredDigraph) -> int:
    """Independent oracle: enumerate all n! permutations.  A permutation is
    admissible when every non-fixed point follows an edge; a fixed point
    trades only along a real self-loop and otherwise keeps its item."""
    edges = set(g.edges)
    best = 0
    for perm in permutations(range(g.vertex_count)):
        if all(u == v or (u, v) in edges for u, v in enumerate(perm)):
            best = max(best, sum(1 for uv in enumerate(perm) if uv in edges))
    return best


def traded_by_dense_assignment(g: bc.ColoredDigraph) -> int:
    """The dense reduction the sparse solver replaced: a maximum-weight
    perfect matching on the n×n matrix with weight 1 per edge, 0 for the
    diagonal keep, and a penalty no gain can offset everywhere else."""
    n = g.vertex_count
    if n == 0:
        return 0
    weight = np.full((n, n), -(n + 1), dtype=np.int64)
    np.fill_diagonal(weight, 0)
    for u, v in g.edges:
        weight[u, v] = 1
    rows, cols = linear_sum_assignment(weight, maximize=True)
    return int(weight[rows, cols].sum())


def test_instance_pair(g_pair):
    assert costs_of(g_pair) == {(0, 1): EDGE_COST, (1, 0): EDGE_COST,
                                (0, 0): KEEP_COST, (1, 1): KEEP_COST}
    assert traded_by_permutations(g_pair) == 2


def test_instance_empty():
    costs = assignment_costs(bc.build_graph([], []))
    assert costs.shape == (0, 0)
    assert costs.nnz == 0


def test_instance_conflict(g_conflict):
    costs = costs_of(g_conflict)
    assert sorted(uv for uv, c in costs.items() if c == EDGE_COST) == sorted(g_conflict.edges)
    assert sorted(uv for uv, c in costs.items() if c == KEEP_COST) == [(v, v) for v in range(4)]
    # frozen from the 4! permutation enumeration above
    assert traded_by_permutations(g_conflict) == 3


def test_instance_collapses_parallel_edges():
    g = bc.build_graph([0, 0], [(0, 1), (0, 1), (1, 0)])
    costs = assignment_costs(g)
    assert costs.nnz == 4
    assert costs_of(g)[0, 1] == EDGE_COST
    assert costs.has_sorted_indices


def test_instance_real_self_loop_beats_dummy():
    g = bc.build_graph([0, 0], [(0, 0), (0, 1), (0, 0)])
    # a real self-loop is an edge like any other; no keep beside it
    assert costs_of(g) == {(0, 0): EDGE_COST, (0, 1): EDGE_COST, (1, 1): KEEP_COST}


def test_solve_pair(g_pair):
    assert max_size_successors(g_pair) == [1, 0]


def test_solve_identity_only():
    assert max_size_successors(bc.build_graph([0, 0, 0], [])) == [-1, -1, -1]


def test_solve_conflict(g_conflict):
    # the 3-vertex optimum is unique: the red 3-cycle, with d keeping its item
    assert max_size_successors(g_conflict) == [1, 2, 0, -1]


def test_solve_max_size_pair(g_pair):
    s = bc.solve_max_size(g_pair)
    assert bc.validate_cycle_set(g_pair, s) == bc.SolutionMetrics(2, 2)
    assert bc.cycle_vertices(g_pair, s.cycles[0]) == (0, 1)


def test_solve_max_size_conflict(g_conflict):
    s = bc.solve_max_size(g_conflict)
    assert bc.validate_cycle_set(g_conflict, s) == bc.SolutionMetrics(3, 1)
    assert bc.cycle_vertices(g_conflict, s.cycles[0]) == (0, 1, 2)


def test_solve_max_size_empty():
    s = bc.solve_max_size(bc.build_graph([], []))
    assert s == bc.CycleSet()


def test_solve_max_size_emits_self_loop_trade():
    g = bc.build_graph([0], [(0, 0)])
    s = bc.solve_max_size(g)
    assert bc.validate_cycle_set(g, s) == bc.SolutionMetrics(1, 1)
    assert max_size_successors(g) == [0]


def test_solve_max_size_resolves_parallel_edges_to_lowest_id():
    g = bc.build_graph([0, 1], [(1, 0), (0, 1), (0, 1), (1, 0)])
    assert bc.solve_max_size(g) == bc.CycleSet((bc.Cycle((1, 0)),))


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(max_vertices=5))
def test_matching_weight_equals_permutation_oracle(g):
    assert traded(max_size_successors(g)) == traded_by_permutations(g)


@settings(max_examples=60, deadline=None)
@given(g=small_graphs())
def test_decomposition_soundness(g):
    successor = max_size_successors(g)
    s = bc.solve_max_size(g)
    assert bc.validate_cycle_set(g, s).vertex_count == traded(successor)
    assert bc.canonical_cycle_set(g, s) == s
    # the edge ids read from the cost matrix are the edge table's lowest ones
    assert s == bc.cycle_set_from_vertices(g, bc.successor_cycles(successor))
    for cycle in s.cycles:
        vertices = bc.cycle_vertices(g, cycle)
        assert all(successor[u] == v for u, v in zip(vertices, vertices[1:] + vertices[:1]))


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(max_vertices=5))
def test_adding_an_edge_never_hurts(g):
    if g.vertex_count == 0:
        return
    base = bc.validate_cycle_set(g, bc.solve_max_size(g)).vertex_count
    n = g.vertex_count
    for u in range(n):
        for v in range(n):
            grown = bc.build_graph(g.vertex_colors, g.edges + ((u, v),))
            bigger = bc.validate_cycle_set(grown, bc.solve_max_size(grown)).vertex_count
            assert bigger >= base


def test_sparse_solver_matches_dense_assignment():
    rng = random.Random(2007)
    for trial in range(120):
        n = rng.randint(0, 300)
        degree = rng.choice((0.5, 1.0, 2.0, 5.0))
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(int(n * degree))]
        edges += [(u, u) for u in range(n) if rng.random() < 0.05]
        edges += rng.sample(edges, len(edges) // 10)  # parallel copies
        rng.shuffle(edges)
        g = bc.build_graph([0] * n, edges)
        got = bc.validate_cycle_set(g, bc.solve_max_size(g)).vertex_count
        assert got == traded_by_dense_assignment(g), f"trial {trial}, n={n}"
