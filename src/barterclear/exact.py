"""Exact solvers for the color-aware clearing objectives.

Maximizing distinct colors (with or without a vertex-maximality side
condition) is NP-hard, so these solvers are exponential-time and meant for
desk-scale instances.  The search branches over per-vertex successor
choices in ascending vertex order: each vertex either gives its item to one
out-neighbor or stays out of the trade.  A partial configuration is
abandoned when an optimistic bound on the undecided vertices cannot beat
the incumbent.

``brute_force_best`` is the independent ground-truth oracle: the same
successor-choice enumeration but with no bounds at all, returning the
lexicographically least canonical optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from time import monotonic

from .assignment import solve_max_size
from .graph import (
    ColoredDigraph,
    CycleSet,
    cycle_set_from_successors,
    successor_cycles,
    validate_cycle_set,
)

MAX_BRUTE_FORCE_VERTICES = 12


class Objective(Enum):
    """The four clearing objectives a cycle set can be optimized for."""

    MAX_VERTICES = "max-size"
    MAX_COLORS = "tex"
    MAX_COLORS_AMONG_MAX_VERTICES = "tmaxex"
    MAX_VERTICES_AMONG_MAX_COLORS = "maxtex"


class BudgetExceeded(RuntimeError):
    """Search aborted at its node or time limit; never a silent suboptimum."""


class TooLarge(ValueError):
    """Instance beyond the oracle's exhaustive-enumeration limit."""


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 10_000_000
    time_limit: float = 60.0


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    seconds: float


def _search(
    g: ColoredDigraph,
    budget: SearchBudget,
    pair_key: bool,
    required_vertices: int | None,
) -> tuple[CycleSet, int]:
    """Branch-and-bound core shared by the color-aware solvers.

    Maximizes distinct covered colors; with ``pair_key`` the key is
    (colors, vertices) compared lexicographically.  With
    ``required_vertices`` only configurations covering exactly that many
    vertices are admissible (and partials that can no longer reach it are
    pruned).  Returns the optimal configuration as a cycle set plus the
    number of search nodes visited.
    """
    n = g.vertex_count
    colors = g.vertex_colors
    k = g.color_count
    succ = g.out_neighbors
    deadline = monotonic() + budget.time_limit
    node_limit = budget.node_limit

    undecided = [0] * k
    for c in colors:
        undecided[c] += 1
    used_of_color = [0] * k
    # avail = colors not covered yet that still have an undecided vertex;
    # covered + avail is an admissible upper bound on final covered colors.
    nodes = 0
    covered = 0
    avail = sum(1 for c in range(k) if undecided[c] > 0)
    v_cnt = 0
    stop = False
    choice = [-1] * n
    inc_key: tuple | None = None
    inc_choice: list[int] | None = None
    inc_canon: tuple | None = None
    perfect_key = None if pair_key else (k,)

    def rec(i: int, in_mask: int, used_mask: int) -> None:
        nonlocal nodes, covered, avail, v_cnt, stop, inc_key, inc_choice, inc_canon
        nodes += 1
        if nodes > node_limit:
            raise BudgetExceeded(f"node limit {node_limit} exceeded")
        if nodes % 2048 == 0 and monotonic() > deadline:
            raise BudgetExceeded(f"time limit {budget.time_limit}s exceeded")
        if i == n:
            if required_vertices is not None and v_cnt != required_vertices:
                return
            key = (covered, v_cnt) if pair_key else (covered,)
            if inc_key is None or key > inc_key:
                inc_key = key
                inc_choice = choice.copy()
                inc_canon = successor_cycles(choice)
                if key == perfect_key:
                    stop = True
            elif key == inc_key:
                canon = successor_cycles(choice)
                if canon < inc_canon:
                    inc_choice = choice.copy()
                    inc_canon = canon
            return
        remaining = n - i
        if required_vertices is not None and v_cnt + remaining < required_vertices:
            return
        if inc_key is not None:
            bound = (covered + avail, v_cnt + remaining) if pair_key else (covered + avail,)
            if bound <= inc_key:
                return
        c = colors[i]
        bit = 1 << i
        for w in succ[i]:
            if stop:
                return
            wbit = 1 << w
            if in_mask & wbit:
                continue  # w already receives an item
            if w < i and not (used_mask & wbit):
                continue  # w already decided out of the trade
            choice[i] = w
            undecided[c] -= 1
            newly_covered = used_of_color[c] == 0
            used_of_color[c] += 1
            if newly_covered:
                covered += 1
                avail -= 1
            v_cnt += 1
            rec(i + 1, in_mask | wbit, used_mask | bit)
            v_cnt -= 1
            used_of_color[c] -= 1
            if newly_covered:
                covered -= 1
                avail += 1
            undecided[c] += 1
        choice[i] = -1
        if not (in_mask & bit) and not stop:
            # i receives nothing so far, so staying out is admissible
            undecided[c] -= 1
            dropped = used_of_color[c] == 0 and undecided[c] == 0
            if dropped:
                avail -= 1
            rec(i + 1, in_mask, used_mask)
            if dropped:
                avail += 1
            undecided[c] += 1

    rec(0, 0, 0)
    assert inc_choice is not None, "empty configuration is always admissible"
    return cycle_set_from_successors(g, inc_choice), nodes


def solve_with_stats(
    g: ColoredDigraph,
    objective: Objective,
    budget: SearchBudget | None = None,
) -> tuple[CycleSet, SearchStats]:
    """Solve under any of the four objectives, reporting search effort."""
    budget = budget or DEFAULT_BUDGET
    t0 = monotonic()
    if objective is Objective.MAX_VERTICES:
        result, nodes = solve_max_size(g), 0
    elif objective is Objective.MAX_COLORS:
        result, nodes = _search(g, budget, pair_key=False, required_vertices=None)
    elif objective is Objective.MAX_COLORS_AMONG_MAX_VERTICES:
        v_star = validate_cycle_set(g, solve_max_size(g)).vertex_count
        result, nodes = _search(g, budget, pair_key=False, required_vertices=v_star)
    elif objective is Objective.MAX_VERTICES_AMONG_MAX_COLORS:
        result, nodes = _search(g, budget, pair_key=True, required_vertices=None)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown objective {objective}")
    return result, SearchStats(nodes, monotonic() - t0)


def solve_tex(g: ColoredDigraph, budget: SearchBudget | None = None) -> CycleSet:
    """Cycle set with the globally maximum number of distinct colors."""
    return solve_with_stats(g, Objective.MAX_COLORS, budget)[0]


def decide_tex(g: ColoredDigraph, budget: SearchBudget | None = None) -> bool:
    """Can some cycle set cover every color in the graph?"""
    best = solve_tex(g, budget)
    return validate_cycle_set(g, best).color_count == g.color_count


def solve_tmaxex(g: ColoredDigraph, budget: SearchBudget | None = None) -> CycleSet:
    """Maximum colors among the cycle sets that cover the maximum number of
    vertices (the vertex optimum is fixed first, via the assignment solver)."""
    return solve_with_stats(g, Objective.MAX_COLORS_AMONG_MAX_VERTICES, budget)[0]


def decide_tmaxex(g: ColoredDigraph, budget: SearchBudget | None = None) -> bool:
    """Does some vertex-maximum cycle set cover every color?"""
    best = solve_tmaxex(g, budget)
    return validate_cycle_set(g, best).color_count == g.color_count


def solve_maxtex(g: ColoredDigraph, budget: SearchBudget | None = None) -> CycleSet:
    """Maximum vertices among the cycle sets that cover the maximum number
    of colors (colors dominate, vertices break ties)."""
    return solve_with_stats(g, Objective.MAX_VERTICES_AMONG_MAX_COLORS, budget)[0]


def brute_force_best(g: ColoredDigraph, objective: Objective) -> CycleSet:
    """Exhaustive oracle: enumerate every vertex-disjoint cycle set.

    Every successor configuration (each vertex maps to an out-neighbor or
    stays unused) whose used part forms a permutation is visited; no bound
    pruning of any kind.  Returns the lexicographically least canonical
    optimum under the objective.  Refuses graphs with more than 12 vertices.
    """
    n = g.vertex_count
    if n > MAX_BRUTE_FORCE_VERTICES:
        raise TooLarge(f"{n} vertices (oracle limit {MAX_BRUTE_FORCE_VERTICES})")
    colors = g.vertex_colors
    k = g.color_count
    succ = g.out_neighbors

    if objective is Objective.MAX_VERTICES:
        key_of = lambda v, c: (v,)
    elif objective is Objective.MAX_COLORS:
        key_of = lambda v, c: (c,)
    elif objective is Objective.MAX_COLORS_AMONG_MAX_VERTICES:
        key_of = lambda v, c: (v, c)
    else:
        key_of = lambda v, c: (c, v)

    used_of_color = [0] * k
    choice = [-1] * n
    v_cnt = 0
    covered = 0
    best_key: tuple | None = None
    best_choice: list[int] | None = None
    best_canon: tuple | None = None

    def rec(i: int, in_mask: int, used_mask: int) -> None:
        nonlocal v_cnt, covered, best_key, best_choice, best_canon
        if i == n:
            key = key_of(v_cnt, covered)
            if best_key is None or key > best_key:
                best_key = key
                best_choice = choice.copy()
                best_canon = successor_cycles(choice)
            elif key == best_key:
                canon = successor_cycles(choice)
                if canon < best_canon:
                    best_choice = choice.copy()
                    best_canon = canon
            return
        c = colors[i]
        bit = 1 << i
        for w in succ[i]:
            wbit = 1 << w
            if in_mask & wbit:
                continue
            if w < i and not (used_mask & wbit):
                continue
            choice[i] = w
            newly_covered = used_of_color[c] == 0
            used_of_color[c] += 1
            if newly_covered:
                covered += 1
            v_cnt += 1
            rec(i + 1, in_mask | wbit, used_mask | bit)
            v_cnt -= 1
            used_of_color[c] -= 1
            if newly_covered:
                covered -= 1
        choice[i] = -1
        if not (in_mask & bit):
            rec(i + 1, in_mask, used_mask)

    rec(0, 0, 0)
    assert best_choice is not None
    return cycle_set_from_successors(g, best_choice)
