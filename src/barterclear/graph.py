"""Vertex-colored directed multigraphs and vertex-disjoint cycle sets.

A barter market is modelled as a digraph: every item is a vertex, colored by
the agent who owns it, and an edge u -> v means the owner of u accepts v in
trade for u.  A clearing outcome is a set of vertex-disjoint simple cycles;
its quality is measured by how many vertices (items) and how many distinct
colors (agents) the cycles cover.

Graphs are multigraphs: self-loops and parallel edges are allowed, which is
why cycles are stored as sequences of edge ids rather than vertex ids.
A graph is its vertex colors and edge endpoints, as read-only int arrays,
and its vertex names and color labels, and holds nothing derived.
Validation and canonical forms read the endpoints of a cycle set's edges
with one gather from ``tails`` and ``heads``.  All objects here are
immutable values that compare by value; operations are pure.

``build_graph`` checks every invariant of a graph; the text parsers, whose
parse proves them, hand their fresh arrays to the private ``_graph`` instead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class CycleSetError(ValueError):
    """A cycle set violates the vertex-disjoint simple-cycle contract."""


class NonexistentEdge(CycleSetError):
    """A cycle references an edge the graph does not have; ``cycle`` is the
    index of that cycle in its set."""

    def __init__(self, message: str, cycle: int | None = None):
        super().__init__(message)
        self.cycle = cycle


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ColoredDigraph:
    """Immutable vertex-colored directed multigraph.

    Vertices and edges are dense integer ids, stored as read-only int
    arrays: ``vertex_colors[v]`` is the color of vertex ``v``, and edge
    ``e`` runs from ``tails[e]`` to ``heads[e]``.  Color ids are dense
    ``0..color_count-1`` and every color is carried by at least one vertex.
    The graph names its own items and agents: ``vertex_names[v]`` is the
    unique name of vertex ``v`` and ``color_labels[c]`` the unique name of
    color ``c``, each a single token of the text formats.  Build graphs
    with ``build_graph``, which sets and checks all of this, or read them
    with ``parse_graph`` or ``parse_wantlist``, whose parse proves it.

    Graphs compare by value: the same names, colors and edges in the same
    order.
    """

    vertex_colors: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    color_labels: tuple[str, ...]
    vertex_names: tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return (
            self.vertex_names == other.vertex_names
            and self.color_labels == other.color_labels
            and np.array_equal(self.vertex_colors, other.vertex_colors)
            and np.array_equal(self.tails, other.tails)
            and np.array_equal(self.heads, other.heads)
        )

    def __hash__(self) -> int:
        return hash((self.vertex_names, self.color_labels, self.edge_count))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_names)

    @property
    def edge_count(self) -> int:
        return len(self.tails)

    @property
    def color_count(self) -> int:
        return len(self.color_labels)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """``(tail, head)`` of every edge, by edge id, built on each call."""
        return tuple(list(zip(self.tails.tolist(), self.heads.tolist())))


def _lowest_edge_ids(g: ColoredDigraph, tails: Sequence[int], heads: Sequence[int]) -> np.ndarray:
    """The lowest edge id from ``tails[i]`` to ``heads[i]`` for each i, or
    -1 where ``g`` has no such edge."""
    n = g.vertex_count
    # every distinct edge's key, ascending, and the lowest edge id of each
    table, edge_ids = np.unique(g.tails * n + g.heads, return_index=True)
    t = np.asarray(tails, dtype=np.intp)
    h = np.asarray(heads, dtype=np.intp)
    if table.size == 0:
        return np.full(t.shape, -1)
    keys = t * n + h
    # a negative id reads as a huge unsigned one, so one test per side
    # catches every out-of-range vertex, whose key might alias a real edge
    keys[(t.view(np.uintp) >= n) | (h.view(np.uintp) >= n)] = -1
    at = table.searchsorted(keys)
    found = table.take(at, mode="clip") == keys
    return np.where(found, edge_ids.take(at, mode="clip"), -1)


def _check_tokens(values: tuple[str, ...], what: str) -> None:
    """Names must survive the text formats: one token each, with no
    whitespace and no ``#``, which starts a comment."""
    joined = " ".join(values)
    if "#" in joined or joined.split() != list(values):
        bad = next(v for v in values if "#" in v or v.split() != [v])
        raise ValueError(f"invalid {what}: {bad!r}")


def build_graph(
    vertex_colors: Sequence[int],
    edges: Sequence[tuple[int, int]],
    color_labels: Sequence[str] | None = None,
    vertex_names: Sequence[str] | None = None,
) -> ColoredDigraph:
    """Construct and validate a colored digraph.

    ``edges`` holds ``(tail, head)`` pairs, as a sequence or an ``(m, 2)``
    integer array; edge ids are assigned in input order.  Color ids must be
    dense: with K distinct colors, exactly the ids 0..K-1 appear (each on at
    least one vertex).  Colors are labelled ``c0``, ``c1``, ... and vertices
    named ``0``, ``1``, ... unless ``color_labels`` and ``vertex_names`` say
    otherwise.  Raises ValueError on color ids or endpoints whose dtype is
    not an integer one (bool and float are not), out-of-range endpoints,
    non-dense color ids, a declared color label with no vertex, repeated
    labels or names, a name list whose length is not the vertex count, or a
    name or label that is empty or contains whitespace or ``#``.
    """
    # a copy, since the graph makes its arrays read-only
    colors = np.array(vertex_colors)
    ends = np.asarray(edges)
    # a cast would truncate floats and parse strings
    if colors.size and colors.dtype.kind not in "iu":
        raise ValueError(f"color ids must be integers, got {colors.dtype}")
    if ends.size and ends.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be integers, got {ends.dtype}")
    colors = colors.astype(np.intp, copy=False)
    ends = ends.astype(np.intp, copy=False)
    if ends.size == 0:
        ends = ends.reshape(0, 2)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("edges must be (tail, head) pairs")
    n = len(colors)

    if color_labels is None:
        color_labels = [f"c{c}" for c in range(colors.max() + 1 if n else 0)]
    labels = tuple(color_labels)
    k = len(labels)
    if len(set(labels)) != k:
        raise ValueError("color labels must be unique")
    names = tuple([str(v) for v in range(n)]) if vertex_names is None else tuple(vertex_names)
    if len(names) != n:
        raise ValueError(f"{len(names)} vertex names for {n} vertices")
    if len(set(names)) != n:
        raise ValueError("vertex names must be unique")
    _check_tokens(labels, "color label")
    _check_tokens(names, "vertex name")

    # a negative id reads as a huge unsigned one, so one maximum per array
    # checks both ends of its range
    if n and colors.view(np.uintp).max() >= k:
        raise ValueError(f"color ids must lie in 0..{k - 1}")
    carriers = np.bincount(colors, minlength=k)
    if not carriers.all():
        raise ValueError(f"colors with no vertex: {np.flatnonzero(carriers == 0).tolist()}")
    if ends.size and ends.view(np.uintp).max() >= n:
        eid = int(np.flatnonzero((ends.view(np.uintp) >= n).any(axis=1))[0])
        raise ValueError(f"edge {eid} endpoint out of range: {tuple(ends[eid].tolist())}")

    tails, heads = ends.T.copy()
    return _graph(colors, tails, heads, labels, names)


def _graph(colors: np.ndarray, tails: np.ndarray, heads: np.ndarray,
           labels: tuple[str, ...], names: tuple[str, ...]) -> ColoredDigraph:
    """The graph of parts that hold every invariant ``build_graph`` checks,
    with ``intp`` arrays that the graph takes over and makes read-only."""
    return ColoredDigraph(*map(_read_only, (colors, tails, heads)), labels, names)


def _edge_ids(cycles: Sequence[Cycle]) -> list[int]:
    return [eid for c in cycles for eid in c.edge_ids]


def cycle_vertices(g: ColoredDigraph, cycle: Cycle) -> tuple[int, ...]:
    """Tail vertices of the cycle's edges, in traversal order."""
    return tuple(g.tails[list(cycle.edge_ids)].tolist())


def validate_cycle_set(g: ColoredDigraph, s: CycleSet) -> SolutionMetrics:
    """Check that ``s`` is a set of vertex-disjoint simple cycles of ``g``.

    Returns the metrics (vertices covered, distinct colors covered) on
    success.  Raises NonexistentEdge, BrokenChain, RepeatedVertexInCycle or
    OverlapBetweenCycles otherwise, naming vertices by ``g.vertex_names``:
    the error of the first faulty cycle, checked in that order.  The check
    is objective-agnostic: any set of vertex-disjoint simple cycles is
    accepted, including the empty set.
    """
    cycles = s.cycles
    ids = _edge_ids(cycles)
    m = g.edge_count
    if ids and not (0 <= min(ids) and max(ids) < m):
        j, eid = next((j, eid) for j, c in enumerate(cycles) for eid in c.edge_ids
                      if not 0 <= eid < m)
        validate_cycle_set(g, CycleSet(cycles[:j]))  # a fault of an earlier cycle comes first
        raise NonexistentEdge(f"edge id {eid} not in graph", j)
    # one gather of the endpoints of every edge of the set
    tail_array = g.tails[ids]
    tails, heads = tail_array.tolist(), g.heads[ids].tolist()
    names = g.vertex_names
    seen: set[int] = set()
    at = 0
    for c in cycles:
        k = len(c)
        vertices = tails[at:at + k]
        nexts = vertices[1:] + vertices[:1]
        if heads[at:at + k] != nexts:
            i = next(i for i in range(k) if heads[at + i] != nexts[i])
            raise BrokenChain(f"edge {c.edge_ids[i]} ends at {names[heads[at + i]]} but edge "
                              f"{c.edge_ids[(i + 1) % k]} starts at {names[nexts[i]]}")
        if len(set(vertices)) != k:
            shown = " ".join(names[v] for v in vertices)
            raise RepeatedVertexInCycle(f"cycle {shown} is not simple")
        overlap = seen.intersection(vertices)
        if overlap:
            raise OverlapBetweenCycles(f"vertex {names[min(overlap)]} is in two cycles")
        seen.update(vertices)
        at += k
    return SolutionMetrics(len(seen), len(set(g.vertex_colors[tail_array].tolist())))


def is_tropical(g: ColoredDigraph, s: CycleSet) -> bool:
    """True iff every color of the graph appears on some covered vertex."""
    return validate_cycle_set(g, s).color_count == g.color_count


def _rotations(g: ColoredDigraph, s: CycleSet) -> list[tuple[Cycle, int, list[int]]]:
    """Each cycle of ``s`` with the position of its smallest vertex and its
    vertices rotated to start there, from one gather, in a stable sort by
    that vertex: the canonical order."""
    tails = g.tails[_edge_ids(s.cycles)].tolist()
    out = []
    at = 0
    for c in s.cycles:
        vertices = tails[at:at + len(c)]
        at += len(c)
        pivot = vertices.index(min(vertices))
        out.append((c, pivot, vertices[pivot:] + vertices[:pivot]))
    out.sort(key=lambda r: r[2][0])
    return out


def canonical_cycle_set(g: ColoredDigraph, s: CycleSet) -> CycleSet:
    """Canonical form: each cycle rotated to its smallest vertex, cycles sorted by it."""
    return CycleSet(tuple([Cycle(c.edge_ids[p:] + c.edge_ids[:p]) for c, p, _ in _rotations(g, s)]))


def canonical_cycle_vertices(g: ColoredDigraph, s: CycleSet) -> tuple[tuple[int, ...], ...]:
    """The vertices of each cycle of ``canonical_cycle_set(g, s)``, in
    traversal order."""
    return tuple([tuple(vertices) for _, _, vertices in _rotations(g, s)])


def cycle_set_from_vertices(g: ColoredDigraph, cycles: Sequence[Sequence[int]]) -> CycleSet:
    """The cycle set whose cycles are v1 -> v2 -> ... -> vk -> v1 for each
    vertex sequence of ``cycles``, in order, with one edge-id lookup for all
    of them; parallel edges resolve to the lowest edge id.  Raises
    NonexistentEdge naming the first missing edge by its vertex names, with
    the index of its cycle."""
    cycles = [tuple(c) for c in cycles]
    tails = [u for c in cycles for u in c]
    heads = [v for c in cycles for v in c[1:] + c[:1]]
    edge_ids = _lowest_edge_ids(g, tails, heads).tolist()
    ends = list(accumulate(map(len, cycles)))
    if -1 in edge_ids:
        at = edge_ids.index(-1)
        raise NonexistentEdge(f"no edge {_vertex_name(g, tails[at])} -> "
                              f"{_vertex_name(g, heads[at])}", bisect_right(ends, at))
    return CycleSet(tuple([Cycle(tuple(edge_ids[a:b])) for a, b in zip([0] + ends, ends)]))


def _vertex_name(g: ColoredDigraph, v: int) -> str:
    return g.vertex_names[v] if 0 <= v < g.vertex_count else str(v)


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


def without_self_loops(g: ColoredDigraph) -> ColoredDigraph:
    """Copy of the graph with all self-loop edges removed (barter semantics)."""
    keep = g.tails != g.heads
    return replace(g, tails=_read_only(g.tails[keep]), heads=_read_only(g.heads[keep]))
