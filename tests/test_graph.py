"""Graph core: construction, cycle-set validation, canonical forms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barterclear as bc
from barterclear.assignment import EDGE_COST, KEEP_COST, assignment_costs
from barterclear.graph import _lowest_edge_ids
from conftest import small_graphs


def test_build_empty_graph():
    g = bc.build_graph([], [])
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert g.color_count == 0
    assert g.color_labels == () and g.vertex_names == ()


def test_build_pair(g_pair):
    assert g_pair.vertex_count == 2
    assert g_pair.edge_count == 2
    assert g_pair.color_count == 2
    assert g_pair.color_labels == ("red", "blue")
    assert g_pair.vertex_names == ("0", "1")


def test_build_conflict(g_conflict):
    assert g_conflict.vertex_count == 4
    assert g_conflict.edge_count == 5
    assert g_conflict.color_count == 2


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="out of range"):
        bc.build_graph([0], [(0, 1)])


def test_build_rejects_non_dense_colors():
    with pytest.raises(ValueError):
        bc.build_graph([0, 2], [])


def test_build_rejects_color_without_vertex():
    with pytest.raises(ValueError, match="no vertex"):
        bc.build_graph([0], [], ["red", "blue"])


def test_build_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="unique"):
        bc.build_graph([0, 1], [], ["red", "red"])


def test_build_rejects_bad_vertex_names():
    with pytest.raises(ValueError, match="1 vertex names for 2 vertices"):
        bc.build_graph([0, 0], [], vertex_names=["a"])
    with pytest.raises(ValueError, match="vertex names must be unique"):
        bc.build_graph([0, 0], [], vertex_names=["a", "a"])


def test_build_rejects_ids_that_are_not_integers():
    # a cast to int would truncate floats, read bools as 0/1 and parse strings
    for colors, edges, what in (
        ([0, 1], [(0.7, 1.2)], "edge endpoints"),
        ([0.5, 1.9], [(0, 1)], "color ids"),
        ([0, 1], [("0", "1")], "edge endpoints"),
        ([True, False], [], "color ids"),
        ([0, 1], np.array([[True, False]]), "edge endpoints"),
    ):
        with pytest.raises(ValueError, match=f"^{what} must be integers, got "):
            bc.build_graph(colors, edges)
    # empty inputs carry no dtype worth checking; other integer dtypes are fine
    assert bc.build_graph(np.array([]), np.array([])).vertex_count == 0
    g = bc.build_graph(np.array([0, 1], np.uint8), np.array([[0, 1]], np.int32))
    assert g.vertex_colors.tolist() == [0, 1] and g.edges == ((0, 1),)


def test_build_rejects_names_no_text_format_can_carry():
    # '#' starts a comment anywhere on a line, and whitespace splits tokens
    for bad in ("a#b", "#a", "a b", "", " ", "a\tb", "a\nb", "a\u2028b"):
        with pytest.raises(ValueError, match="^invalid vertex name: "):
            bc.build_graph([0], [], vertex_names=[bad])
        with pytest.raises(ValueError, match="^invalid color label: "):
            bc.build_graph([0], [], color_labels=[bad])


def test_graph_arrays_are_read_only(g_conflict):
    for a in (g_conflict.vertex_colors, g_conflict.tails, g_conflict.heads,
              *g_conflict._edge_table):
        with pytest.raises(ValueError):
            a[0] = 0


def test_validate_forced_pair(g_pair):
    s = bc.CycleSet((bc.Cycle((0, 1)),))
    assert bc.validate_cycle_set(g_pair, s) == bc.SolutionMetrics(2, 2)


def test_validate_empty_set_is_valid(g_pair):
    assert bc.validate_cycle_set(g_pair, bc.CycleSet()) == bc.SolutionMetrics(0, 0)


NAMED_CONFLICT = "V a red\nV b red\nV c red\nV d blue\nE a b\nE b c\nE c a\nE a d\nE d a\n"


def test_validate_rejects_overlap(g_conflict):
    # the 3-cycle a,b,c and the 2-cycle a,d share vertex a by construction
    s = bc.CycleSet((bc.Cycle((0, 1, 2)), bc.Cycle((3, 4))))
    with pytest.raises(bc.OverlapBetweenCycles):
        bc.validate_cycle_set(g_conflict, s)
    with pytest.raises(bc.OverlapBetweenCycles, match="^vertex a is in two cycles$"):
        bc.validate_cycle_set(bc.parse_graph(NAMED_CONFLICT), s)


def test_validate_rejects_nonexistent_edge(g_pair):
    with pytest.raises(bc.NonexistentEdge):
        bc.validate_cycle_set(g_pair, bc.CycleSet((bc.Cycle((7,)),)))


def test_validate_rejects_broken_chain(g_conflict):
    # a->b followed by c->a does not chain
    with pytest.raises(bc.BrokenChain):
        bc.validate_cycle_set(g_conflict, bc.CycleSet((bc.Cycle((0, 2)),)))
    with pytest.raises(bc.BrokenChain, match="^edge 0 ends at b but edge 2 starts at c$"):
        bc.validate_cycle_set(bc.parse_graph(NAMED_CONFLICT), bc.CycleSet((bc.Cycle((0, 2)),)))


def test_validate_rejects_repeated_vertex():
    # figure-eight through vertex 0 chains correctly but is not simple
    g = bc.build_graph([0, 0, 0], [(0, 1), (1, 0), (0, 2), (2, 0)])
    s = bc.CycleSet((bc.Cycle((0, 1, 2, 3)),))
    with pytest.raises(bc.RepeatedVertexInCycle):
        bc.validate_cycle_set(g, s)
    named = bc.parse_graph("V a red\nV b red\nV c red\nE a b\nE b a\nE a c\nE c a\n")
    with pytest.raises(bc.RepeatedVertexInCycle, match="^cycle a b a c is not simple$"):
        bc.validate_cycle_set(named, s)


def test_empty_cycle_is_rejected():
    with pytest.raises(bc.BrokenChain):
        bc.Cycle(())


def test_self_loop_is_a_length_one_cycle():
    g = bc.build_graph([0], [(0, 0)])
    s = bc.CycleSet((bc.Cycle((0,)),))
    assert bc.validate_cycle_set(g, s) == bc.SolutionMetrics(1, 1)


def test_parallel_self_loops_are_distinct_cycles():
    g = bc.build_graph([0], [(0, 0), (0, 0)])
    one = bc.CycleSet((bc.Cycle((0,)),))
    other = bc.CycleSet((bc.Cycle((1,)),))
    assert bc.validate_cycle_set(g, one) == bc.validate_cycle_set(g, other)
    assert one != other


def test_is_tropical(g_pair, g_conflict):
    assert bc.is_tropical(g_pair, bc.CycleSet((bc.Cycle((0, 1)),)))
    assert not bc.is_tropical(g_conflict, bc.CycleSet((bc.Cycle((0, 1, 2)),)))
    assert bc.is_tropical(g_conflict, bc.CycleSet((bc.Cycle((3, 4)),)))


def test_canonical_cycle_set_rotates_to_smallest_vertex(g_conflict):
    rotated = bc.CycleSet((bc.Cycle((1, 2, 0)),))  # b->c, c->a, a->b
    (canon,) = bc.canonical_cycle_set(g_conflict, rotated).cycles
    assert bc.cycle_vertices(g_conflict, canon) == (0, 1, 2)


def test_canonical_cycle_set_sorts_by_leading_vertex():
    g = bc.build_graph([0, 0, 0, 0], [(2, 3), (3, 2), (0, 1), (1, 0)])
    s = bc.CycleSet((bc.Cycle((0, 1)), bc.Cycle((2, 3))))
    canon = bc.canonical_cycle_set(g, s)
    leads = [bc.cycle_vertices(g, c)[0] for c in canon.cycles]
    assert leads == [0, 2]


def test_cycle_set_from_vertices_prefers_lowest_parallel_edge():
    g = bc.build_graph([0, 0], [(0, 1), (0, 1), (1, 0)])
    assert bc.cycle_set_from_vertices(g, [[0, 1]]) == bc.CycleSet((bc.Cycle((0, 2)),))


def test_cycle_set_from_vertices_names_the_missing_edge():
    g = bc.parse_graph("V a red\nV b red\nV c red\nE a b\nE b c\n")
    with pytest.raises(bc.NonexistentEdge, match="^no edge c -> a$"):
        bc.cycle_set_from_vertices(g, [[0, 1, 2]])
    with pytest.raises(bc.NonexistentEdge, match="^no edge a -> 7$"):
        bc.cycle_set_from_vertices(g, [[0, 7]])


@st.composite
def multigraphs(draw):
    """Multigraphs of up to 30 vertices and up to 4 colors: self-loops,
    parallel edges and isolated vertices all occur.  Vertex v is named
    ``v<n-1-v>``, so a message that names a vertex by its id shows."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return bc.build_graph([], [])
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.one_of(st.tuples(vertex, vertex), vertex.map(lambda u: (u, u))),
                          max_size=3 * n))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=n))  # parallel copies
        edges = draw(st.permutations(edges))
    k = draw(st.integers(1, min(n, 4)))
    colors = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    return bc.build_graph(colors, edges, vertex_names=[f"v{n - 1 - v}" for v in range(n)])


@settings(max_examples=150, deadline=None)
@given(g=multigraphs())
def test_array_core_matches_a_plain_python_reference(g):
    n = g.vertex_count
    first: dict[tuple[int, int], int] = {}
    for eid, pair in enumerate(g.edges):
        first.setdefault(pair, eid)
    # every pair, out-of-range ids included: the lowest edge id, or -1
    pairs = [(u, v) for u in range(-1, n + 1) for v in range(-1, n + 1)]
    us, vs = zip(*pairs)
    assert _lowest_edge_ids(g, us, vs).tolist() == [first.get(pair, -1) for pair in pairs]
    # and through its one caller, on the walk u -> v -> u or the self-loop
    # u -> u: the cycle's edge ids, or the first missing edge named
    names = {w: g.vertex_names[w] if 0 <= w < n else str(w) for w in range(-1, n + 1)}
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            walk = [u, v] if u != v else [u]
            pairs = list(zip(walk, walk[1:] + walk[:1]))
            missing = [pair for pair in pairs if pair not in first]
            try:
                got = bc.cycle_set_from_vertices(g, [walk])
            except bc.NonexistentEdge as exc:
                got = str(exc)
            if missing:
                a, b = missing[0]
                assert got == f"no edge {names[a]} -> {names[b]}"
            else:
                assert got == bc.CycleSet((bc.Cycle(tuple(first[pair] for pair in pairs)),))
    costs = assignment_costs(g)
    expected = {pair: EDGE_COST for pair in first}
    expected.update({(u, u): KEEP_COST for u in range(n) if (u, u) not in first})
    rows = costs.tocoo()
    assert {(int(u), int(v)): int(c) for u, v, c in zip(rows.row, rows.col, rows.data)} == expected
    assert costs.nnz == len(expected)
    for u in range(n):
        columns = costs.indices[costs.indptr[u]:costs.indptr[u + 1]].tolist()
        assert columns == sorted(columns)


def reference_validate(g, s):
    """Cycle-set validation walking ``g.edges`` one edge at a time: the
    checks validate_cycle_set makes from one gather, kept as its reference."""
    edges, names = g.edges, g.vertex_names
    seen = set()
    for cycle in s.cycles:
        for eid in cycle.edge_ids:
            if not (0 <= eid < len(edges)):
                raise bc.NonexistentEdge(f"edge id {eid} not in graph")
        vertices = tuple(edges[eid][0] for eid in cycle.edge_ids)
        for eid, next_eid in zip(cycle.edge_ids, cycle.edge_ids[1:] + cycle.edge_ids[:1]):
            if edges[eid][1] != edges[next_eid][0]:
                raise bc.BrokenChain(
                    f"edge {eid} ends at {names[edges[eid][1]]} but edge "
                    f"{next_eid} starts at {names[edges[next_eid][0]]}"
                )
        if len(set(vertices)) != len(vertices):
            shown = " ".join(names[v] for v in vertices)
            raise bc.RepeatedVertexInCycle(f"cycle {shown} is not simple")
        overlap = seen.intersection(vertices)
        if overlap:
            raise bc.OverlapBetweenCycles(f"vertex {names[min(overlap)]} is in two cycles")
        seen.update(vertices)
    return bc.SolutionMetrics(len(seen), len({g.vertex_colors[v] for v in seen}))


def reference_canonical(g, s):
    """Each cycle rotated to its smallest vertex, cycles sorted by it, by
    walking ``g.edges``."""
    rotated = []
    for c in s.cycles:
        vertices = [g.edges[eid][0] for eid in c.edge_ids]
        pivot = vertices.index(min(vertices))
        rotated.append(bc.Cycle(c.edge_ids[pivot:] + c.edge_ids[:pivot]))
    rotated.sort(key=lambda c: g.edges[c.edge_ids[0]][0])
    return bc.CycleSet(tuple(rotated))


def _outcome(check, g, s):
    try:
        return check(g, s)
    except bc.CycleSetError as exc:
        return type(exc), str(exc)


@st.composite
def cycle_sets(draw, g):
    """Valid cycle sets of ``g`` (a subset of a maximum clearing, each cycle
    rotated, on random parallel edges, in random order), and corrupted ones:
    ids out of range, broken chains, repeated vertices and overlaps, at
    times two faults in different cycles."""
    parallel: dict[tuple[int, int], list[int]] = {}
    for eid, pair in enumerate(g.edges):
        parallel.setdefault(pair, []).append(eid)
    cycles = []
    for c in bc.solve_max_size(g).cycles:
        if draw(st.booleans()):
            ids = [draw(st.sampled_from(parallel[g.edges[eid]])) for eid in c.edge_ids]
            turn = draw(st.integers(0, len(ids) - 1))
            cycles.append(ids[turn:] + ids[:turn])
    cycles = draw(st.permutations(cycles))
    m = g.edge_count
    for _ in range(draw(st.integers(0, 2))):
        if not cycles:
            break
        i = draw(st.integers(0, len(cycles) - 1))
        c = cycles[i]
        fault = draw(st.sampled_from(["negative", "too large", "any edge", "twice round",
                                      "copy", "swap"]))
        if fault == "negative":
            c[draw(st.integers(0, len(c) - 1))] = draw(st.integers(-3, -1))
        elif fault == "too large":
            c[draw(st.integers(0, len(c) - 1))] = m + draw(st.integers(0, 2))
        elif fault == "any edge" and m:
            c[draw(st.integers(0, len(c) - 1))] = draw(st.integers(0, m - 1))
        elif fault == "twice round":
            cycles[i] = c + c
        elif fault == "copy":
            cycles.insert(draw(st.integers(0, len(cycles))), list(c))
        elif fault == "swap" and len(c) >= 3:
            cycles[i] = [c[1], c[0], *c[2:]]
    return bc.CycleSet(tuple(bc.Cycle(tuple(c)) for c in cycles))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), g=multigraphs())
def test_validation_and_canonical_forms_match_an_edge_walk(data, g):
    s = data.draw(cycle_sets(g))
    expected = _outcome(reference_validate, g, s)
    assert _outcome(bc.validate_cycle_set, g, s) == expected
    if isinstance(expected, bc.SolutionMetrics):
        canon = reference_canonical(g, s)
        assert bc.canonical_cycle_set(g, s) == canon
        assert bc.parse_cycles(bc.serialize_solution(g, s)) == tuple(
            tuple(g.vertex_names[g.edges[eid][0]] for eid in c.edge_ids) for c in canon.cycles)
        assert bc.canonical_cycle_vertices(g, s) == tuple(
            tuple(g.edges[eid][0] for eid in c.edge_ids) for c in canon.cycles)


def test_validation_names_the_first_faulty_cycle():
    # a fault of an earlier cycle comes first; within one cycle a nonexistent
    # edge comes before a broken chain, and a repeated vertex before an overlap
    g = bc.parse_graph("V a red\nV b red\nV c red\nE a b\nE b a\nE c c\nE b c\n")
    for cycles, error, message in (
        (((0, 3), (9,)), bc.BrokenChain, "edge 3 ends at c but edge 0 starts at a"),
        (((2,), (0, 9)), bc.NonexistentEdge, "edge id 9 not in graph"),
        (((0, 1), (2,), (-1,)), bc.NonexistentEdge, "edge id -1 not in graph"),
        (((0, 1, 0, 1), (1, 0)), bc.RepeatedVertexInCycle, "cycle a b a b is not simple"),
        (((2,), (1, 0), (0, 1)), bc.OverlapBetweenCycles, "vertex a is in two cycles"),
        (((1, 0), (0, 1, 0, 1)), bc.RepeatedVertexInCycle, "cycle a b a b is not simple"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            bc.validate_cycle_set(g, bc.CycleSet(tuple(map(bc.Cycle, cycles))))


def test_successor_cycles_are_canonical():
    # 4 -> 0 -> 2 -> 4 is rooted at 0; 3 trades along its self-loop; 1 keeps
    assert bc.successor_cycles([2, -1, 4, 3, 0]) == ((0, 2, 4), (3,))
    g = bc.build_graph([0] * 5, [(4, 0), (3, 3), (0, 2), (2, 4), (0, 2)])
    s = bc.cycle_set_from_vertices(g, bc.successor_cycles([2, -1, 4, 3, 0]))
    assert s == bc.CycleSet((bc.Cycle((2, 3, 0)), bc.Cycle((1,))))
    assert bc.canonical_cycle_set(g, s) == s
    # of two missing edges, the first in cycle order is named: 2 -> 1, not 1 -> 0
    with pytest.raises(bc.NonexistentEdge, match="^no edge 2 -> 1$"):
        bc.cycle_set_from_vertices(bc.build_graph([0] * 3, [(0, 2)]),
                                   bc.successor_cycles([2, 0, 1]))


def test_without_self_loops():
    g = bc.build_graph([0, 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
    trimmed = bc.without_self_loops(g)
    assert trimmed.edges == ((0, 1), (1, 0))
    assert trimmed.color_count == 2


@settings(max_examples=60, deadline=None)
@given(g=small_graphs())
def test_accepted_sets_count_each_vertex_once(g):
    s = bc.solve_max_size(g)
    metrics = bc.validate_cycle_set(g, s)
    assert metrics.vertex_count == sum(len(c) for c in s.cycles)
    assert metrics.color_count <= metrics.vertex_count
    assert metrics.color_count <= g.color_count


@settings(max_examples=60, deadline=None)
@given(g=small_graphs())
def test_tropicality_matches_color_coverage(g):
    s = bc.solve_with_stats(g, bc.Objective.MAX_COLORS)[0]
    metrics = bc.validate_cycle_set(g, s)
    covered = {
        g.vertex_colors[v] for c in s.cycles for v in bc.cycle_vertices(g, c)
    }
    assert (metrics.color_count == g.color_count) == (covered == set(range(g.color_count)))
