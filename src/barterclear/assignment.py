"""Polynomial-time exact solver for the maximum-vertex clearing objective.

Finding a vertex-disjoint cycle set covering the most vertices reduces to an
assignment problem (Abraham, Blum & Sandholm, EC 2007): item u is assigned
the item it gives to.  Every distinct real edge u -> v, a real self-loop
included, costs 1; a vertex with no self-loop may instead keep its item, a
dummy diagonal entry that costs 2.  The diagonal guarantees a full matching
exists, and a full matching costs n plus the number of kept items, so a
minimum-cost one trades the most vertices.  The non-dummy part of the
matching is the successor configuration of the cycle set.

The cost matrix is sparse, with n + (distinct edges) entries at most.  It
is built from the graph's edge arrays, with the keeps spliced in, and is
solved by scipy's LAPJVsp (Jonker & Volgenant 1987, sparse variant).
Costs are small integers, exact in floating point.  The one sort that
builds the matrix also gives each entry's lowest edge id, so the solve
reads the edge of every trade from it and needs no edge-table lookup.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .graph import ColoredDigraph, Cycle, CycleSet, successor_cycles

EDGE_COST = 1
KEEP_COST = 2


def assignment_costs(g: ColoredDigraph) -> csr_array:
    """Sparse n×n cost matrix of the assignment reduction.

    Row u holds EDGE_COST at every distinct successor of u (parallel edges
    collapse) and, when u has no self-loop, KEEP_COST on the diagonal.
    Column indices are ascending within each row.
    """
    return _costs(g)[0]


def _costs(g: ColoredDigraph) -> tuple[csr_array, np.ndarray, np.ndarray]:
    """The cost matrix, the key ``u * n + v`` of each of its entries in
    ascending order, and for each entry the position of its first source in
    the edge ids followed by the diagonal: the lowest edge id u -> v when it
    is below ``g.edge_count``, a keep otherwise."""
    n = g.vertex_count
    # parallel edges collapse, and the diagonal entries no self-loop fills are the keeps
    keys, first = np.unique(np.concatenate((g.tails * n + g.heads, np.arange(n) * (n + 1))),
                            return_index=True)
    data = np.where(first < g.edge_count, float(EDGE_COST), float(KEEP_COST))
    rows, indices = np.divmod(keys, max(n, 1))
    indptr = rows.searchsorted(np.arange(n + 1))
    costs = csr_array((data, indices.astype(np.int32), indptr.astype(np.int32)), shape=(n, n))
    return costs, keys, first


def _trades(g: ColoredDigraph) -> tuple[np.ndarray, np.ndarray]:
    """An optimal assignment: for each vertex u, the item it gives to or -1
    when it keeps its own, and the lowest edge id from u to the item it is
    assigned, read from the cost matrix's own edge table."""
    costs, keys, first = _costs(g)
    # a square full matching lists every row in order, so the columns are
    # the successors
    _, heads = min_weight_full_bipartite_matching(costs)
    n = g.vertex_count
    edge_ids = first[keys.searchsorted(np.arange(n) * n + heads)]
    # a real self-loop comes before the diagonal, so it trades
    return np.where(edge_ids < g.edge_count, heads, -1), edge_ids


def max_size_successors(g: ColoredDigraph) -> list[int]:
    """Optimal successor configuration: ``successor[u]`` is the item u gives
    to, or -1 when u keeps its item.  Deterministic for a fixed input."""
    return _trades(g)[0].tolist()


def solve_max_size(g: ColoredDigraph) -> CycleSet:
    """A vertex-disjoint cycle set covering the maximum number of vertices,
    in canonical form."""
    successors, edge_ids = _trades(g)
    edge_ids = edge_ids.tolist()
    return CycleSet(tuple([Cycle(tuple([edge_ids[u] for u in c]))
                           for c in successor_cycles(successors.tolist())]))
