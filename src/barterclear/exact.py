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
optimistic bound on them, the vertices and the open colors left in the free
set, cannot beat the incumbent.  A visit hands its extensions their whole
state as arguments, so no step is undone on the way back.

The search reads the graph's edges once, into a map per vertex from each
successor to the lowest edge id that leads there: its ascending successor
lists come from that map, and so does each edge id of the cycle set it
returns.  A cycle never leaves a strong component, so the search keeps
only the edges inside one;
the components come from one pass of Tarjan's algorithm with an explicit
stack, in O(n + m).  The free set starts as the vertices on a cycle and is
trimmed each time vertices leave it, when a chosen cycle takes them or a
root is passed over: every vertex with no successor or no predecessor left
in the set is dropped, repeatedly, starting from the neighbors of the
vertices that left.  Every cycle inside the set survives the trim, so the
bound stays optimistic and the visit order is unchanged.

The vertex bound of ``tmaxex`` and ``maxtex`` is capped by v*, the most
vertices any clearing trades, and a set of v* vertices that covers every
color on a cycle ends the search.  The search counts v* itself from its
in-component successor lists (``_max_size``): a matching grown by one
augmenting search per vertex, finished when it is not a set of cycles by
shortest augmenting paths with potentials.  Only ``max-size`` calls the
assignment layer.

``solve_with_stats(g, objective, budget)`` is the one way into the solvers,
for all four objectives, and returns the search effort with the answer.
``brute_force_best`` is the independent ground-truth oracle: an enumeration
of successor choices, listed from ``g.edges``, with no bounds at all,
returning the lexicographically least canonical optimum.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from math import inf
from time import monotonic

from .assignment import solve_max_size
from .graph import (
    ColoredDigraph,
    Cycle,
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


@dataclass(frozen=True)
class SearchStats:
    """``nodes`` counts the cycle sets visited plus the steps of the walks
    that look for cycles; the trims of the free set are not counted."""

    nodes: int


def _strong_components(succ: Sequence[Sequence[int]]) -> list[int]:
    """The strong component label of each vertex: Tarjan's algorithm with
    an explicit stack, in O(n + m)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    trail: list[int] = []  # Tarjan's stack of vertices without a label yet
    count = labels = 0
    for s in range(n):
        if index[s] >= 0:
            continue
        index[s] = low[s] = count
        count += 1
        trail.append(s)
        walk = [(s, iter(succ[s]))]
        while walk:
            v, successors = walk[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    trail.append(w)
                    walk.append((w, iter(succ[w])))
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                walk.pop()
                if walk and low[v] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[v]
                if low[v] == index[v]:
                    w = -1
                    while w != v:
                        w = trail.pop()
                        label[w] = labels
                    labels += 1
    return label


def _max_matching(succ: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """A maximum matching of vertices to successors, as each vertex's
    successor and each successor's vertex (-1 when unmatched): each vertex in
    turn runs one iterative augmenting search (Kuhn 1955), in which a vertex
    reached takes a free successor if it has one and only otherwise leads on.
    A vertex with no augmenting path never gains one later."""
    n = len(succ)
    mate = [-1] * n
    owner = [-1] * n
    seen = [-1] * n  # the vertex whose search last tried each successor
    for s in range(n):
        walk = []
        u = s
        while u >= 0:
            walk.append((u, iter(succ[u])))
            for w in succ[u]:
                if owner[w] < 0:
                    break
            else:  # every successor of u is matched: lead on through an untried one
                u = -1
                while walk and u < 0:
                    for w in walk[-1][1]:
                        if seen[w] != s:
                            seen[w] = s
                            u = owner[w]
                            break
                    else:
                        walk.pop()
                continue
            for v, _ in reversed(walk):  # each takes the successor that led on
                mate[v], w = w, mate[v]
                owner[mate[v]] = v
            break
    return mate, owner


def _max_size(succ: Sequence[Sequence[int]]) -> int:
    """The ``max-size`` optimum v*: the most vertices that vertex-disjoint
    cycles along ``succ`` cover, a self-loop included.

    A maximum matching of vertices to successors (``_max_matching``)
    matches at least v* vertices, and exactly v* when every matched
    successor is matched itself, for the matching is then a set of cycles.
    Otherwise it is finished into a minimum-cost perfect matching, in which
    a successor costs 0 and keeping the item costs 1, by shortest augmenting
    paths over reduced costs with column potentials (the primal-dual scheme
    of Jonker & Volgenant 1987); v* counts its successors.
    """
    n = len(succ)
    mate, owner = _max_matching(succ)
    if all(mate[w] >= 0 for w, v in enumerate(owner) if v >= 0):
        return n - mate.count(-1)
    keep = [int(v not in ws) for v, ws in enumerate(succ)]  # a real self-loop trades
    # the matching costs 0, so zero potentials leave every reduced cost >= 0
    price = [0] * n
    dist = [inf] * n
    via = [-1] * n
    for s in range(n):
        if mate[s] >= 0:
            continue
        # Dijkstra from s, stopped at the first free column it settles
        reached, settled, heap = [], [], []
        v, base = s, 0
        while True:
            for w in (*succ[v], v):  # the successors, then keeping the item
                d = base - price[w] + (keep[v] if w == v else 0)
                if d < dist[w]:
                    if dist[w] == inf:
                        reached.append(w)
                    dist[w], via[w] = d, v
                    heappush(heap, (d, w))
            d, w = heappop(heap)
            while d > dist[w]:  # a stale entry
                d, w = heappop(heap)
            v = owner[w]
            if v < 0:
                break
            settled.append(w)
            base = d + price[w] - (keep[v] if w == v else 0)
        for x in settled:
            price[x] += dist[x] - d
        while v != s:
            v = via[w]
            owner[w] = v
            mate[v], w = w, mate[v]
        for x in reached:
            dist[x] = inf
    return n - sum(keep[v] for v in range(n) if mate[v] == v)


class _CycleSearch:
    """The state of one search.  Methods rather than closures, so that a
    finished search leaves no reference cycle behind."""

    def __init__(self, g: ColoredDigraph, budget: SearchBudget, key_of) -> None:
        # one pass over the edges, last to first, leaves each vertex's map
        # from a successor to the lowest edge id that leads there
        tails, heads = g.tails.tolist(), g.heads.tolist()
        self.edge_ids: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
        for e in range(len(tails) - 1, -1, -1):
            self.edge_ids[tails[e]][heads[e]] = e
        out_neighbors = [sorted(ids) for ids in self.edge_ids]
        # only the edges inside a strong component can lie on a cycle, and a
        # vertex lies on a cycle iff one of them leaves it
        label = _strong_components(out_neighbors)
        self.succ = [[w for w in ws if label[w] == label[v]]
                     for v, ws in enumerate(out_neighbors)]
        self.out_masks = [0] * g.vertex_count
        self.in_masks = [0] * g.vertex_count
        self.on_cycle = 0
        colors = g.vertex_colors.tolist()
        color_masks = [0] * g.color_count  # each color's vertices on a cycle
        for v, ws in enumerate(self.succ):
            if ws:
                self.on_cycle |= 1 << v
                color_masks[colors[v]] |= 1 << v
            for w in ws:
                self.out_masks[v] |= 1 << w
                self.in_masks[w] |= 1 << v
        self.neighbor_masks = [a | b for a, b in zip(self.out_masks, self.in_masks)]
        self.key_of = key_of
        # v* caps the vertex bound only when the key counts vertices
        self.v_cap = _max_size(self.succ) if key_of(1, 0) > key_of(0, 0) else g.vertex_count
        self.open_colors = [mask for mask in color_masks if mask]
        self.best: tuple[tuple[int, ...], ...] = ()  # the empty set, visited first
        self.best_key = key_of(0, 0)
        self.stop_key = key_of(self.v_cap, len(self.open_colors))
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.time_limit = budget.time_limit
        self.deadline = monotonic() + budget.time_limit

    def best_cycle_set(self) -> CycleSet:
        """The incumbent as a cycle set, each step on its lowest edge id."""
        ids = self.edge_ids
        return CycleSet(tuple([Cycle(tuple([ids[u][w] for u, w in zip(c, (*c[1:], c[0]))]))
                               for c in self.best]))

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise BudgetExceeded(f"node limit {self.node_limit} exceeded")
        if self.nodes % 2048 == 0 and monotonic() > self.deadline:
            raise BudgetExceeded(f"time limit {self.time_limit}s exceeded")

    def trim(self, free: int, gone: Iterable[int]) -> int:
        """``free`` without every vertex that has no successor or no
        predecessor left in it, repeatedly; only the neighbors of the
        vertices in ``gone``, which left a trimmed set, need a look.  Every
        cycle inside ``free`` survives."""
        out_masks, in_masks, near = self.out_masks, self.in_masks, self.neighbor_masks
        look = 0
        for u in gone:
            look |= near[u]
        look &= free
        while look:
            bit = look & -look
            look ^= bit
            x = bit.bit_length() - 1
            if not (out_masks[x] & free and in_masks[x] & free):
                free ^= bit
                look |= near[x] & free
        return free

    def visit(self, chosen: tuple[tuple[int, ...], ...], free: int, v: int, covered: int,
              open_colors: list[int]) -> bool:
        """Visit the ``chosen`` cycles, with ``v`` vertices and ``covered``
        colors, then their extensions inside the trimmed set ``free``, whose
        uncovered colors all have their vertex masks in ``open_colors``, in
        color order.  True once the incumbent cannot be beaten."""
        self.tick()
        key_of = self.key_of
        key = key_of(v, covered)
        if key > self.best_key:
            self.best_key, self.best = key, chosen
            if key == self.stop_key:
                return True
        while free:
            root = (free & -free).bit_length() - 1
            open_colors = [mask for mask in open_colors if mask & free]
            bound = key_of(min(self.v_cap, v + free.bit_count()), covered + len(open_colors))
            if bound <= self.best_key:
                return False
            before, allowed = free, free ^ 1 << root
            free = self.trim(allowed, (root,))  # the set once this root is passed over
            path = [root]
            stack = [iter(self.succ[root])]
            while stack:
                for w in stack[-1]:
                    if w == root:
                        # the open colors are all uncovered ones with a vertex
                        # in before, so the ones the cycle meets are newly covered
                        taken = before ^ allowed  # the root and the path
                        left = [mask for mask in open_colors if not mask & taken]
                        if self.visit((*chosen, tuple(path)), self.trim(free & ~taken, path[1:]),
                                      v + len(path), covered + len(open_colors) - len(left),
                                      left):
                            return True
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

    ``max-size`` is the assignment layer's LAPJVsp solve.  The color-aware
    objectives search cycle sets with at most v* vertices: for ``tmaxex``
    and ``maxtex`` the ``max-size`` optimum, which the search counts from
    its own successor lists, and for ``tex``, whose key ignores vertices,
    the vertex count.
    """
    if objective is Objective.MAX_VERTICES:
        return solve_max_size(g), SearchStats(0)
    search = _CycleSearch(g, budget or SearchBudget(), _KEYS[objective])
    search.visit((), search.on_cycle, 0, 0, search.open_colors)
    return search.best_cycle_set(), SearchStats(search.nodes)


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
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(set(g.edges)):  # distinct successors, ascending
        succ[u].append(v)
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
    del rec  # the closure refers to itself: a cycle only the collector would free
    assert best_canon is not None
    return cycle_set_from_vertices(g, best_canon)
