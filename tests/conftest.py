"""Shared fixtures, hypothesis strategies and seeded corpus builders."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

import barterclear as bc

# (x1 v -x2) ^ (x2): satisfiable
CNF_A = bc.CnfInstance(2, ((1, -2), (2,)))
# (x1) ^ (-x1): a contradiction
CNF_B = bc.CnfInstance(1, ((1,), (-1,)))
# (x1 v x2) ^ (-x1 v -x2): satisfiable, 2-CNF
CNF_C = bc.CnfInstance(2, ((1, 2), (-1, -2)))


def successors(g: bc.ColoredDigraph) -> list[list[int]]:
    """The distinct successors of each vertex, ascending, from ``g.edges``."""
    succ: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in sorted(set(g.edges)):
        succ[u].append(v)
    return succ


def report_fields(stdout: str) -> dict[str, str]:
    """The ``<key> <value>`` lines that ``clear`` prints before the ``C``
    lines of its solution, by key."""
    fields: dict[str, str] = {}
    for line in stdout.splitlines():
        tokens = line.split()
        if tokens[0] == "C":
            break
        key, value = tokens
        fields[key] = value
    return fields


@pytest.fixture
def g_pair() -> bc.ColoredDigraph:
    """Two items of two agents trading with each other."""
    return bc.build_graph([0, 1], [(0, 1), (1, 0)], ["red", "blue"])


@pytest.fixture
def g_conflict() -> bc.ColoredDigraph:
    """A one-agent 3-cycle competes with a 2-cycle that covers both agents."""
    return bc.build_graph(
        [0, 0, 0, 1],
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)],
        ["red", "blue"],
    )


@pytest.fixture
def g_tie() -> bc.ColoredDigraph:
    """Two vertex-maximal clearings tie; only one covers both colors."""
    return bc.build_graph(
        [0, 0, 1],
        [(0, 1), (1, 0), (0, 2), (2, 0)],
        ["red", "blue"],
    )


@st.composite
def small_graphs(draw, max_vertices: int = 6, allow_self_loops: bool = True):
    """Random colored multigraphs, small enough for the exhaustive oracle."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n == 0:
        return bc.build_graph([], [])
    k = draw(st.integers(min_value=1, max_value=n))
    colors = list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k)
    )
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if not allow_self_loops:
        pair = pair.filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=3 * n))
    return bc.build_graph(colors, edges)


@st.composite
def cnfs(draw, max_vars: int = 4, max_clauses: int = 5, max_clause_len: int = 3):
    """Random small CNF instances (clauses may repeat or be tautological)."""
    n = draw(st.integers(min_value=1, max_value=max_vars))
    literal = st.builds(
        lambda var, sign: sign * var,
        st.integers(1, n),
        st.sampled_from([1, -1]),
    )
    clause = st.lists(literal, min_size=1, max_size=max_clause_len).map(tuple)
    clauses = draw(st.lists(clause, min_size=0, max_size=max_clauses).map(tuple))
    return bc.CnfInstance(n, clauses)


def objective_value(objective: bc.Objective, metrics: bc.SolutionMetrics) -> tuple:
    """The metric components an objective actually pins down.

    Single-tier objectives leave the other component free: optimal cycle
    sets may legitimately differ in it, so only the optimized value is
    comparable across solvers.  The two-tier objectives pin both.
    """
    if objective is bc.Objective.MAX_VERTICES:
        return (metrics.vertex_count,)
    if objective is bc.Objective.MAX_COLORS:
        return (metrics.color_count,)
    return tuple(metrics)


def corpus_graphs(
    count: int,
    seed: int,
    max_vertices: int = 9,
    max_colors: int = 5,
    probs: tuple[float, ...] = (0.2, 0.35, 0.5),
) -> list[bc.ColoredDigraph]:
    """Seeded random markets for the acceptance suite."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, max_vertices)
        k = rng.randint(1, min(n, max_colors))
        out.append(bc.gen_random(n, k, probs[i % len(probs)], seed=rng.randrange(2**30)))
    return out


def corpus_cnfs(
    count: int,
    seed: int,
    max_vars: int = 6,
    max_clauses: int = 8,
    max_clause_len: int = 3,
) -> list[bc.CnfInstance]:
    """Seeded random CNF formulas for the reduction acceptance checks."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_vars)
        q = rng.randint(1, max_clauses)
        clauses = tuple(
            tuple(
                rng.choice((-1, 1)) * rng.randint(1, n)
                for _ in range(rng.randint(1, max_clause_len))
            )
            for _ in range(q)
        )
        out.append(bc.CnfInstance(n, clauses))
    return out
