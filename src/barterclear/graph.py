"""Vertex-colored directed multigraphs and vertex-disjoint cycle sets.

A barter market is modelled as a digraph: every item is a vertex, colored by
the agent who owns it, and an edge u -> v means the owner of u accepts v in
trade for u.  A clearing outcome is a set of vertex-disjoint simple cycles;
its quality is measured by how many vertices (items) and how many distinct
colors (agents) the cycles cover.

Graphs are multigraphs: self-loops and parallel edges are allowed, which is
why cycles are stored as sequences of edge ids rather than vertex ids.
All objects here are immutable values; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence


class CycleSetError(ValueError):
    """A cycle set violates the vertex-disjoint simple-cycle contract."""


class NonexistentEdge(CycleSetError):
    """A cycle references an edge id the graph does not have."""


class BrokenChain(CycleSetError):
    """Consecutive edges of a cycle do not chain head-to-tail."""


class RepeatedVertexInCycle(CycleSetError):
    """A cycle visits some vertex more than once (not simple)."""


class OverlapBetweenCycles(CycleSetError):
    """Two cycles of the set share a vertex."""


class SolutionMetrics(NamedTuple):
    """The two clearing objectives: items traded and agents trading."""

    vertex_count: int
    color_count: int


@dataclass(frozen=True)
class Cycle:
    """A simple directed cycle, stored as the sequence of edge ids it follows.

    A single self-loop edge is a valid cycle of length 1.
    """

    edge_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.edge_ids) == 0:
            raise BrokenChain("a cycle must contain at least one edge")

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class CycleSet:
    """A (possibly empty) collection of pairwise vertex-disjoint cycles."""

    cycles: tuple[Cycle, ...] = ()

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self) -> Iterator[Cycle]:
        return iter(self.cycles)


EMPTY_CYCLE_SET = CycleSet()


@dataclass(frozen=True)
class ColoredDigraph:
    """Immutable vertex-colored directed multigraph.

    Vertices and edges are dense integer ids.  ``vertex_colors[v]`` is the
    color of vertex ``v``; ``edges[e]`` is the ``(tail, head)`` pair of edge
    ``e``.  Color ids are dense ``0..color_count-1`` and every color is
    carried by at least one vertex.  The graph names its own items and
    agents: ``vertex_names[v]`` is the unique name of vertex ``v`` and
    ``color_labels[c]`` the unique name of color ``c``.  Build graphs with
    ``build_graph``, which sets and checks both.
    """

    vertex_colors: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    color_count: int
    color_labels: tuple[str, ...]
    vertex_names: tuple[str, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_colors)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Distinct successor vertices per vertex, ascending (parallel edges collapsed)."""
        succ: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for tail, head in self.edges:
            succ[tail].add(head)
        return tuple(tuple(sorted(s)) for s in succ)

    @cached_property
    def _lowest_edge_id(self) -> dict[tuple[int, int], int]:
        # first occurrence wins: edge ids are assigned in input order
        lowest: dict[tuple[int, int], int] = {}
        for eid, pair in enumerate(self.edges):
            lowest.setdefault(pair, eid)
        return lowest

    def edge_id_between(self, tail: int, head: int) -> int | None:
        """Lowest edge id from ``tail`` to ``head``, or None if no such edge."""
        return self._lowest_edge_id.get((tail, head))


def build_graph(
    vertex_colors: Sequence[int],
    edges: Sequence[tuple[int, int]],
    color_labels: Sequence[str] | None = None,
    vertex_names: Sequence[str] | None = None,
) -> ColoredDigraph:
    """Construct and validate a colored digraph.

    Color ids must be dense: with K distinct colors, exactly the ids 0..K-1
    appear (each on at least one vertex).  Edge ids are assigned in input
    order.  Colors are labelled ``c0``, ``c1``, ... and vertices named
    ``0``, ``1``, ... unless ``color_labels`` and ``vertex_names`` say
    otherwise.  Raises ValueError on out-of-range endpoints, non-dense color
    ids, a declared color label with no vertex, repeated labels or names, or
    a name list whose length is not the vertex count.
    """
    colors = tuple(int(c) for c in vertex_colors)
    edge_list = tuple((int(u), int(v)) for u, v in edges)
    n = len(colors)

    if color_labels is None:
        color_labels = [f"c{c}" for c in range(max(colors) + 1 if colors else 0)]
    labels = tuple(color_labels)
    k = len(labels)
    if len(set(labels)) != k:
        raise ValueError("color labels must be unique")
    names = tuple(map(str, range(n))) if vertex_names is None else tuple(vertex_names)
    if len(names) != n:
        raise ValueError(f"{len(names)} vertex names for {n} vertices")
    if len(set(names)) != n:
        raise ValueError("vertex names must be unique")

    present = set(colors)
    if colors and (min(colors) < 0 or max(colors) >= k):
        raise ValueError(f"color ids must lie in 0..{k - 1}")
    if present != set(range(k)):
        missing = sorted(set(range(k)) - present)
        raise ValueError(f"colors with no vertex: {missing}")

    for eid, (u, v) in enumerate(edge_list):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")

    return ColoredDigraph(colors, edge_list, k, labels, names)


def cycle_vertices(g: ColoredDigraph, cycle: Cycle) -> tuple[int, ...]:
    """Tail vertices of the cycle's edges, in traversal order."""
    return tuple(g.edges[eid][0] for eid in cycle.edge_ids)


def validate_cycle_set(g: ColoredDigraph, s: CycleSet) -> SolutionMetrics:
    """Check that ``s`` is a set of vertex-disjoint simple cycles of ``g``.

    Returns the metrics (vertices covered, distinct colors covered) on
    success.  Raises NonexistentEdge, BrokenChain, RepeatedVertexInCycle or
    OverlapBetweenCycles otherwise, naming vertices by ``g.vertex_names``.
    The check is objective-agnostic: any set of vertex-disjoint simple
    cycles is accepted, including the empty set.
    """
    seen: set[int] = set()
    covered_colors: set[int] = set()
    total = 0
    for cycle in s.cycles:
        for eid in cycle.edge_ids:
            if not (0 <= eid < g.edge_count):
                raise NonexistentEdge(f"edge id {eid} not in graph")
        vertices = cycle_vertices(g, cycle)
        for eid, next_eid in zip(cycle.edge_ids, cycle.edge_ids[1:] + cycle.edge_ids[:1]):
            if g.edges[eid][1] != g.edges[next_eid][0]:
                raise BrokenChain(
                    f"edge {eid} ends at {g.vertex_names[g.edges[eid][1]]} but edge "
                    f"{next_eid} starts at {g.vertex_names[g.edges[next_eid][0]]}"
                )
        if len(set(vertices)) != len(vertices):
            shown = " ".join(g.vertex_names[v] for v in vertices)
            raise RepeatedVertexInCycle(f"cycle {shown} is not simple")
        overlap = seen.intersection(vertices)
        if overlap:
            raise OverlapBetweenCycles(f"vertex {g.vertex_names[min(overlap)]} is in two cycles")
        seen.update(vertices)
        covered_colors.update(g.vertex_colors[v] for v in vertices)
        total += len(vertices)
    return SolutionMetrics(total, len(covered_colors))


def is_tropical(g: ColoredDigraph, s: CycleSet) -> bool:
    """True iff every color of the graph appears on some covered vertex."""
    return validate_cycle_set(g, s).color_count == g.color_count


def canonical_cycle(g: ColoredDigraph, cycle: Cycle) -> Cycle:
    """Rotate the cycle so its smallest vertex id comes first."""
    vertices = cycle_vertices(g, cycle)
    pivot = vertices.index(min(vertices))
    return Cycle(cycle.edge_ids[pivot:] + cycle.edge_ids[:pivot])


def canonical_cycle_set(g: ColoredDigraph, s: CycleSet) -> CycleSet:
    """Canonical form: each cycle rotated to its smallest vertex, cycles sorted by it."""
    rotated = [canonical_cycle(g, c) for c in s.cycles]
    rotated.sort(key=lambda c: g.edges[c.edge_ids[0]][0])
    return CycleSet(tuple(rotated))


def cycle_from_vertices(g: ColoredDigraph, vertices: Sequence[int]) -> Cycle:
    """Build the cycle v1 -> v2 -> ... -> vk -> v1, taking the lowest edge id
    whenever parallel edges exist between consecutive vertices."""
    edge_ids = []
    k = len(vertices)
    for i, u in enumerate(vertices):
        v = vertices[(i + 1) % k]
        eid = g.edge_id_between(u, v)
        if eid is None:
            raise NonexistentEdge(f"no edge {u} -> {v}")
        edge_ids.append(eid)
    return Cycle(tuple(edge_ids))


def successor_cycles(successor: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a successor configuration, as vertex tuples.

    ``successor[u]`` is the vertex u gives its item to, or -1 when u stays
    out of the trade; the vertices in the trade must form a permutation.
    Scanning start vertices in ascending order roots every cycle at its
    smallest vertex and orders cycles by it, so the result is canonical and
    doubles as a comparison key for tie-breaking.
    """
    visited = [False] * len(successor)
    out = []
    for start in range(len(successor)):
        if successor[start] < 0 or visited[start]:
            continue
        cyc = []
        u = start
        while not visited[u]:
            visited[u] = True
            cyc.append(u)
            u = successor[u]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_set_from_successors(g: ColoredDigraph, successor: Sequence[int]) -> CycleSet:
    """The canonical cycle set of a successor configuration of ``g``
    (see ``successor_cycles``); parallel edges resolve to the lowest edge id."""
    return CycleSet(tuple(cycle_from_vertices(g, c) for c in successor_cycles(successor)))


def without_self_loops(g: ColoredDigraph) -> ColoredDigraph:
    """Copy of the graph with all self-loop edges removed (barter semantics)."""
    return replace(g, edges=tuple(e for e in g.edges if e[0] != e[1]))
