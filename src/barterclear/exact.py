"""Exact solvers for the color-aware clearing objectives.

Maximizing distinct colors (with or without a vertex-maximality side
condition) is NP-hard, so these solvers are exponential-time and meant for
desk-scale instances.  The search is a branch and bound over closed cycles,
the cycle formulation of Abraham, Blum & Sandholm (EC 2007).  A cycle is
rooted at its smallest vertex, a cycle set lists its cycles by root, and a
set is extended only by cycles rooted above its last root.  The cycles of a
root come from a depth-first walk through the unused vertices above it that
closes a cycle before extending it, so sets are visited in the
lexicographic order of their canonical forms and the first optimum found is
the least one.  The extensions from a root on are abandoned when an
optimistic bound on them cannot beat the incumbent.

``brute_force_best`` is the independent ground-truth oracle: an enumeration
of successor choices with no bounds at all, returning the lexicographically
least canonical optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from time import monotonic

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .assignment import max_size_successors, solve_max_size
from .graph import (
    ColoredDigraph,
    CycleSet,
    cycle_set_from_vertices,
    successor_cycles,
)

MAX_BRUTE_FORCE_VERTICES = 12


class Objective(Enum):
    """The four clearing objectives a cycle set can be optimized for."""

    MAX_VERTICES = "max-size"
    MAX_COLORS = "tex"
    MAX_COLORS_AMONG_MAX_VERTICES = "tmaxex"
    MAX_VERTICES_AMONG_MAX_COLORS = "maxtex"


# each objective's key of (vertices, colors), compared as a tuple
_KEYS = {
    Objective.MAX_VERTICES: lambda v, c: (v,),
    Objective.MAX_COLORS: lambda v, c: (c,),
    Objective.MAX_COLORS_AMONG_MAX_VERTICES: lambda v, c: (v, c),
    Objective.MAX_VERTICES_AMONG_MAX_COLORS: lambda v, c: (c, v),
}


class BudgetExceeded(RuntimeError):
    """Search aborted at its node or time limit; never a silent suboptimum."""


class TooLarge(ValueError):
    """Instance beyond the oracle's exhaustive-enumeration limit."""


@dataclass(frozen=True)
class SearchBudget:
    """The node and time (seconds) limits of one search; ``inf`` means no
    time limit.  Raises ValueError on a negative limit or a NaN time."""

    node_limit: int = 10_000_000
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        if self.node_limit < 0:
            raise ValueError(f"node limit must not be negative, got {self.node_limit}")
        if not self.time_limit >= 0:  # NaN compares false
            raise ValueError(f"time limit must not be negative or NaN, got {self.time_limit}")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SearchStats:
    """``nodes`` counts the cycle sets visited plus the steps of the walks
    that look for cycles."""

    nodes: int
    seconds: float


class _CycleSearch:
    """The state of one search.  Methods rather than closures, so that a
    finished search leaves no reference cycle behind."""

    def __init__(self, g: ColoredDigraph, budget: SearchBudget, key_of, v_cap: int) -> None:
        self.succ = g.out_neighbors
        self.colors = g.vertex_colors.tolist()
        self.key_of = key_of
        self.v_cap = v_cap
        # a vertex lies on a cycle iff it has a self-loop or a nontrivial
        # strong component; a cycle never leaves its root's component
        view = g.csr
        adjacency = csr_array((np.ones(view.indices.size), view.indices, view.indptr),
                              shape=(g.vertex_count, g.vertex_count))
        _, labels = connected_components(adjacency, directed=True, connection="strong")
        labels = labels.tolist()
        members = [0] * g.vertex_count
        for v, label in enumerate(labels):
            members[label] |= 1 << v
        self.component = [members[label] for label in labels]
        self.on_cycle = sum(1 << v for v, mask in enumerate(self.component)
                            if mask != 1 << v or v in self.succ[v])
        self.color_masks = [0] * g.color_count
        for v, c in enumerate(self.colors):
            if self.on_cycle >> v & 1:
                self.color_masks[c] |= 1 << v
        self.uses = [0] * g.color_count
        self.chosen: list[tuple[int, ...]] = []
        self.best: tuple[tuple[int, ...], ...] = ()  # the empty set, visited first
        self.best_key = key_of(0, 0)
        self.stop_key = key_of(v_cap, sum(1 for mask in self.color_masks if mask))
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.time_limit = budget.time_limit
        self.deadline = monotonic() + budget.time_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise BudgetExceeded(f"node limit {self.node_limit} exceeded")
        if self.nodes % 2048 == 0 and monotonic() > self.deadline:
            raise BudgetExceeded(f"time limit {self.time_limit}s exceeded")

    def visit(self, start: int, used: int, v: int, covered: int) -> bool:
        """Visit the chosen set, then its extensions by cycles rooted at
        ``start`` or above; True once the incumbent cannot be beaten."""
        self.tick()
        key_of, uses, colors, chosen = self.key_of, self.uses, self.colors, self.chosen
        key = key_of(v, covered)
        if key > self.best_key:
            self.best_key, self.best = key, tuple(chosen)
            if key == self.stop_key:
                return True
        free = self.on_cycle & ~used & -1 << start
        open_colors = [mask for c, mask in enumerate(self.color_masks)
                       if mask & free and not uses[c]]
        while free:
            root = (free & -free).bit_length() - 1
            open_colors = [mask for mask in open_colors if mask & free]
            bound = key_of(min(self.v_cap, v + free.bit_count()), covered + len(open_colors))
            if bound <= self.best_key:
                return False
            free ^= 1 << root
            allowed = self.component[root] & free
            path = [root]
            stack = [iter(self.succ[root])]
            while stack:
                for w in stack[-1]:
                    if w == root:
                        new, taken = 0, used
                        for u in path:
                            new += not uses[colors[u]]
                            uses[colors[u]] += 1
                            taken |= 1 << u
                        chosen.append(tuple(path))
                        if self.visit(root + 1, taken, v + len(path), covered + new):
                            return True
                        chosen.pop()
                        for u in path:
                            uses[colors[u]] -= 1
                    elif allowed >> w & 1:
                        self.tick()
                        allowed ^= 1 << w
                        path.append(w)
                        stack.append(iter(self.succ[w]))
                        break
                else:
                    stack.pop()
                    allowed |= 1 << path.pop()
        return False


def solve_with_stats(
    g: ColoredDigraph,
    objective: Objective,
    budget: SearchBudget | None = None,
) -> tuple[CycleSet, SearchStats]:
    """Solve under any of the four objectives, reporting search effort.

    The color-aware objectives search cycle sets with at most v* vertices:
    the ``max-size`` optimum for ``tmaxex`` and ``maxtex``, the vertex count
    for ``tex``, whose key ignores vertices.
    """
    t0 = monotonic()
    if objective is Objective.MAX_VERTICES:
        return solve_max_size(g), SearchStats(0, monotonic() - t0)
    if objective is Objective.MAX_COLORS:
        v_cap = g.vertex_count
    else:
        v_cap = sum(v >= 0 for v in max_size_successors(g))  # the vertices that trade
    search = _CycleSearch(g, budget or DEFAULT_BUDGET, _KEYS[objective], v_cap)
    search.visit(0, 0, 0, 0)
    return cycle_set_from_vertices(g, search.best), SearchStats(search.nodes, monotonic() - t0)


def solve_tex(g: ColoredDigraph, budget: SearchBudget | None = None) -> CycleSet:
    """Cycle set with the globally maximum number of distinct colors."""
    return solve_with_stats(g, Objective.MAX_COLORS, budget)[0]


def solve_tmaxex(g: ColoredDigraph, budget: SearchBudget | None = None) -> CycleSet:
    """Maximum colors among the cycle sets that cover the maximum number of
    vertices (the vertex optimum is fixed first, via the assignment solver)."""
    return solve_with_stats(g, Objective.MAX_COLORS_AMONG_MAX_VERTICES, budget)[0]


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
    colors = g.vertex_colors.tolist()
    k = g.color_count
    succ = g.out_neighbors
    key_of = _KEYS[objective]

    used_of_color = [0] * k
    choice = [-1] * n
    v_cnt = 0
    covered = 0
    best_key: tuple | None = None
    best_canon: tuple | None = None

    def rec(i: int, in_mask: int, used_mask: int) -> None:
        nonlocal v_cnt, covered, best_key, best_canon
        if i == n:
            key = key_of(v_cnt, covered)
            if best_key is None or key > best_key:
                best_key = key
                best_canon = successor_cycles(choice)
            elif key == best_key:
                canon = successor_cycles(choice)
                if canon < best_canon:
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
    assert best_canon is not None
    return cycle_set_from_vertices(g, best_canon)
