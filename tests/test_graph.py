"""Graph core: construction, cycle-set validation, canonical forms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barterclear as bc
from barterclear.assignment import EDGE_COST, KEEP_COST, assignment_costs
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


def test_build_rejects_names_no_text_format_can_carry():
    # '#' starts a comment anywhere on a line, and whitespace splits tokens
    for bad in ("a#b", "#a", "a b", "", " ", "a\tb", "a\nb", "a\u2028b"):
        with pytest.raises(ValueError, match="^invalid vertex name: "):
            bc.build_graph([0], [], vertex_names=[bad])
        with pytest.raises(ValueError, match="^invalid color label: "):
            bc.build_graph([0], [], color_labels=[bad])


def test_graph_arrays_are_read_only(g_conflict):
    for a in (g_conflict.vertex_colors, g_conflict.tails, g_conflict.heads, *g_conflict.csr):
        with pytest.raises(ValueError):
            a[0] = 0


def test_validate_forced_pair(g_pair):
    s = bc.CycleSet((bc.Cycle((0, 1)),))
    assert bc.validate_cycle_set(g_pair, s) == bc.SolutionMetrics(2, 2)


def test_validate_empty_set_is_valid(g_pair):
    assert bc.validate_cycle_set(g_pair, bc.EMPTY_CYCLE_SET) == bc.SolutionMetrics(0, 0)


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


def test_canonical_cycle_rotates_to_smallest_vertex(g_conflict):
    rotated = bc.Cycle((1, 2, 0))  # b->c, c->a, a->b
    canon = bc.canonical_cycle(g_conflict, rotated)
    assert bc.cycle_vertices(g_conflict, canon) == (0, 1, 2)


def test_canonical_cycle_set_sorts_by_leading_vertex():
    g = bc.build_graph([0, 0, 0, 0], [(2, 3), (3, 2), (0, 1), (1, 0)])
    s = bc.CycleSet((bc.Cycle((0, 1)), bc.Cycle((2, 3))))
    canon = bc.canonical_cycle_set(g, s)
    leads = [bc.cycle_vertices(g, c)[0] for c in canon.cycles]
    assert leads == [0, 2]


def test_cycle_from_vertices_prefers_lowest_parallel_edge():
    g = bc.build_graph([0, 0], [(0, 1), (0, 1), (1, 0)])
    c = bc.cycle_from_vertices(g, [0, 1])
    assert c.edge_ids == (0, 2)


def test_cycle_from_vertices_names_the_missing_edge():
    g = bc.parse_graph("V a red\nV b red\nV c red\nE a b\nE b c\n")
    with pytest.raises(bc.NonexistentEdge, match="^no edge c -> a$"):
        bc.cycle_from_vertices(g, [0, 1, 2])
    with pytest.raises(bc.NonexistentEdge, match="^no edge a -> 7$"):
        bc.cycle_from_vertices(g, [0, 7])


@st.composite
def multigraphs(draw):
    """Uncolored multigraphs of up to 30 vertices: self-loops, parallel
    edges and isolated vertices all occur."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return bc.build_graph([], [])
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.one_of(st.tuples(vertex, vertex), vertex.map(lambda u: (u, u))),
                          max_size=3 * n))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=n))  # parallel copies
        edges = draw(st.permutations(edges))
    return bc.build_graph([0] * n, edges)


@settings(max_examples=150, deadline=None)
@given(g=multigraphs())
def test_array_core_matches_a_plain_python_reference(g):
    n = g.vertex_count
    first: dict[tuple[int, int], int] = {}
    for eid, pair in enumerate(g.edges):
        first.setdefault(pair, eid)
    successors = [sorted({v for u, v in first if u == w}) for w in range(n)]
    assert g.out_neighbors == tuple(map(tuple, successors))
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.edge_id_between(u, v) == first.get((u, v))
    costs = assignment_costs(g)
    expected = {pair: EDGE_COST for pair in first}
    expected.update({(u, u): KEEP_COST for u in range(n) if (u, u) not in first})
    rows = costs.tocoo()
    assert {(int(u), int(v)): int(c) for u, v, c in zip(rows.row, rows.col, rows.data)} == expected
    assert costs.nnz == len(expected)
    for u in range(n):
        columns = costs.indices[costs.indptr[u]:costs.indptr[u + 1]].tolist()
        assert columns == sorted(columns)


def test_successor_cycles_are_canonical():
    # 4 -> 0 -> 2 -> 4 is rooted at 0; 3 trades along its self-loop; 1 keeps
    assert bc.successor_cycles([2, -1, 4, 3, 0]) == ((0, 2, 4), (3,))
    g = bc.build_graph([0] * 5, [(4, 0), (3, 3), (0, 2), (2, 4), (0, 2)])
    s = bc.cycle_set_from_successors(g, [2, -1, 4, 3, 0])
    assert s == bc.CycleSet((bc.Cycle((2, 3, 0)), bc.Cycle((1,))))
    assert bc.canonical_cycle_set(g, s) == s


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
    s = bc.solve_tex(g)
    metrics = bc.validate_cycle_set(g, s)
    covered = {
        g.vertex_colors[v] for c in s.cycles for v in bc.cycle_vertices(g, c)
    }
    assert (metrics.color_count == g.color_count) == (covered == set(range(g.color_count)))
