"""Per-color-bound approximation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

import barterclear as bc
from barterclear import Objective
from conftest import small_graphs


def test_per_color_bound(g_pair, g_conflict, g_tie):
    assert bc.per_color_bound(g_pair) == 1
    assert bc.per_color_bound(g_conflict) == 3
    assert bc.per_color_bound(g_tie) == 2


def test_per_color_bound_empty_graph():
    with pytest.raises(bc.EmptyGraph):
        bc.per_color_bound(bc.build_graph([], []))
    with pytest.raises(bc.EmptyGraph):
        bc.approx_jpc(bc.build_graph([], []))


def test_approx_on_tie(g_tie):
    s, guarantee = bc.approx_jpc(g_tie)
    metrics = bc.validate_cycle_set(g_tie, s)
    assert guarantee == Fraction(1, 2)
    assert metrics.vertex_count == 2
    # color optimum is 2 (by enumeration); the guarantee demands >= 1
    opt = bc.validate_cycle_set(g_tie, bc.brute_force_best(g_tie, Objective.MAX_COLORS))
    assert opt.color_count == 2
    assert metrics.color_count in (1, 2)
    assert metrics.color_count * 2 >= opt.color_count


def test_approx_on_conflict(g_conflict):
    s, guarantee = bc.approx_jpc(g_conflict)
    metrics = bc.validate_cycle_set(g_conflict, s)
    assert guarantee == Fraction(1, 3)
    assert metrics == (3, 1)  # the red 3-cycle; 1 >= 2/3


def test_approx_exact_when_one_item_per_agent(g_pair):
    s, guarantee = bc.approx_jpc(g_pair)
    assert guarantee == Fraction(1, 1)
    assert bc.validate_cycle_set(g_pair, s).color_count == 2


@settings(max_examples=80, deadline=None)
@given(g=small_graphs())
def test_approximation_bound(g):
    if g.vertex_count == 0:
        return
    j = bc.per_color_bound(g)
    s, guarantee = bc.approx_jpc(g)
    metrics = bc.validate_cycle_set(g, s)
    opt = bc.validate_cycle_set(g, bc.brute_force_best(g, Objective.MAX_COLORS))
    assert guarantee == Fraction(1, j)
    assert metrics.color_count * j >= opt.color_count
    # the approximation always attains the vertex optimum
    assert metrics.vertex_count == bc.validate_cycle_set(g, bc.solve_max_size(g)).vertex_count
    if j == 1:
        tex = bc.solve_with_stats(g, Objective.MAX_COLORS)[0]
        assert metrics.color_count == bc.validate_cycle_set(g, tex).color_count
