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
comes straight from the graph's cached CSR view of its distinct edges, with
the keeps spliced in, and is solved by scipy's LAPJVsp (Jonker & Volgenant
1987, sparse variant).  Costs are small integers, exact in floating point.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .graph import ColoredDigraph, CycleSet, cycle_set_from_vertices, successor_cycles

EDGE_COST = 1
KEEP_COST = 2


def assignment_costs(g: ColoredDigraph) -> csr_array:
    """Sparse n×n cost matrix of the assignment reduction.

    Row u holds EDGE_COST at every distinct successor of u (parallel edges
    collapse) and, when u has no self-loop, KEEP_COST on the diagonal.
    Column indices are ascending within each row.
    """
    n = g.vertex_count
    edge_keys = g.csr.keys
    # the diagonal entries the distinct edges lack are the keeps
    keys, first = np.unique(np.concatenate((edge_keys, np.arange(n) * (n + 1))), return_index=True)
    data = np.where(first < edge_keys.size, float(EDGE_COST), float(KEEP_COST))
    rows, indices = np.divmod(keys, max(n, 1))
    indptr = rows.searchsorted(np.arange(n + 1))
    return csr_array((data, indices.astype(np.int32), indptr.astype(np.int32)), shape=(n, n))


def max_size_successors(g: ColoredDigraph) -> list[int]:
    """Optimal successor configuration: ``successor[u]`` is the item u gives
    to, or -1 when u keeps its item.  Deterministic for a fixed input."""
    # a square full matching lists every row in order, so the columns are
    # the successors
    _, heads = min_weight_full_bipartite_matching(assignment_costs(g))
    kept = heads == np.arange(g.vertex_count)
    kept[g.tails[g.tails == g.heads]] = False  # a real self-loop trades
    return np.where(kept, -1, heads).tolist()


def solve_max_size(g: ColoredDigraph) -> CycleSet:
    """A vertex-disjoint cycle set covering the maximum number of vertices,
    in canonical form."""
    return cycle_set_from_vertices(g, successor_cycles(max_size_successors(g)))
