"""Compile CNF formulas into vertex-colored trading graphs.

Each variable becomes a vertex carrying two loops back to itself, one for
TRUE and one for FALSE; each clause gets its own color, and every literal of
a clause becomes a vertex of that color spliced into the loop matching its
polarity, so the loop stays a single cycle through the variable vertex.  The
two loops of a variable share only the variable vertex, so any set of
vertex-disjoint cycles picks at most one of them: the pick is the variable's
truth value, and a clause color appears in the cycles exactly when some pick
satisfies the clause.

``build_sat_graph(cnf, variant)`` builds one of three gadget variants, named
in ``GADGET_VARIANTS``:

* plain    - variable vertices share one color; colors = clauses + 1.
* balanced - padding vertices of one fresh "balance" color stretch every
             loop to the same length, so vertex-maximality can no longer
             discriminate between truth assignments.
* 2pc      - two per color: variable vertices get unique colors, every
             balance vertex gets its own fresh color, and one extra cycle
             carries a twin vertex of each balance color; no color appears
             on more than two vertices (agents bring at most two items).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Collection, Hashable, Sequence

from .exact import Objective, SearchBudget, solve_with_stats
from .graph import (
    Cycle,
    ColoredDigraph,
    CycleSet,
    CycleSetError,
    build_graph,
    cycle_vertices,
    validate_cycle_set,
)
from .formats import GadgetMap
from .sat import CnfInstance, max_satisfiable, satisfied_count


class ClauseTooLarge(ValueError):
    """The two-per-color construction requires clauses of at most 2 literals."""


class InvalidSolution(ValueError):
    """The cycle set being pulled back is not valid for the gadget graph."""


@dataclass(frozen=True)
class ReductionArtifact:
    """A gadget graph plus the bookkeeping needed to pull solutions back.

    ``variable_vertex[i-1]``, ``true_loops[i-1]`` and ``false_loops[i-1]``
    describe variable i; ``clause_colors[j]`` is the color of clause j
    (0-based).  ``balance_vertices`` are the padding vertices; their colors,
    like every label, are read off ``graph``.
    """

    graph: ColoredDigraph
    cnf: CnfInstance
    variable_vertex: tuple[int, ...]
    true_loops: tuple[Cycle, ...]
    false_loops: tuple[Cycle, ...]
    clause_colors: tuple[int, ...]
    balance_vertices: tuple[int, ...] = ()
    balance_cycle: Cycle | None = None

    @property
    def num_balance(self) -> int:
        return len(self.balance_vertices)


def _add_loop(edges: list[tuple[int, int]], start: int, chain: list[int]) -> Cycle:
    """Append the edges of start -> chain... -> start and return them as a cycle."""
    path = [start] + chain
    first = len(edges)
    edges.extend(zip(path, path[1:] + [start]))
    return Cycle(tuple(range(first, len(edges))))


GADGET_VARIANTS = ("plain", "balanced", "2pc")


def build_sat_graph(cnf: CnfInstance, variant: str = "plain") -> ReductionArtifact:
    """The ``variant`` gadget of ``cnf``, one of ``GADGET_VARIANTS``.

    The plain gadget has num_vars + total (deduplicated) literals vertices
    and num_clauses + 1 colors, and a cycle set covering every color exists
    iff the formula is satisfiable.  ``2pc`` requires clauses of at most 2
    literals (else ``ClauseTooLarge``); its extra cycle makes every balance
    color coverable without touching any loop choice.

    Vertex ids run over the variables, the literals in clause order, the
    balance vertices in loop order and the ``2pc`` twins; edge ids run over
    the loops (x1 TRUE, x1 FALSE, x2 TRUE, ...) and then the twin cycle.
    """
    if variant not in GADGET_VARIANTS:
        raise ValueError(f"unknown gadget variant {variant!r} "
                         f"(expected one of {', '.join(GADGET_VARIANTS)})")
    two_per_color = variant == "2pc"
    if two_per_color:
        for j, clause in enumerate(cnf.clauses):
            if len(clause) > 2:
                raise ClauseTooLarge(f"clause {j + 1} has {len(clause)} literals (max 2)")
    n = cnf.num_vars
    if n == 0:
        return ReductionArtifact(build_graph([], []), cnf, (), (), (), ())
    if two_per_color:
        vertex_colors = list(range(n))
        labels = [f"x{i}" for i in range(1, n + 1)]
    else:
        vertex_colors = [0] * n
        labels = ["var"]
    clause_colors = tuple(range(len(labels), len(labels) + cnf.num_clauses))
    labels += [f"clause{j}" for j in range(1, cnf.num_clauses + 1)]

    # chains[2*i] and chains[2*i + 1] follow variable vertex i on its TRUE
    # and its FALSE loop
    chains: list[list[int]] = [[] for _ in range(2 * n)]
    for j, clause in enumerate(cnf.clauses):
        for lit in clause:
            chains[2 * (abs(lit) - 1) + (lit < 0)].append(len(vertex_colors))
            vertex_colors.append(clause_colors[j])

    balance: list[int] = []
    if variant != "plain":
        # every loop grows to (longest loop + 1) vertices, padded right
        # before its edge back to the variable vertex; a balance vertex takes
        # the newest label's color, the shared "balance" or its own
        if not two_per_color:
            labels.append("balance")
        padded = max(map(len, chains)) + 1
        for chain in chains:
            for _ in range(padded - len(chain)):
                if two_per_color:
                    labels.append(f"balance{len(balance) + 1}")
                balance.append(len(vertex_colors))
                chain.append(len(vertex_colors))
                vertex_colors.append(len(labels) - 1)

    edges: list[tuple[int, int]] = []
    loops = [_add_loop(edges, k // 2, chain) for k, chain in enumerate(chains)]
    balance_cycle = None
    if two_per_color:
        # one twin vertex per balance vertex, in its color, forming one extra cycle
        twins = list(range(len(vertex_colors), len(vertex_colors) + len(balance)))
        vertex_colors += [vertex_colors[v] for v in balance]
        balance_cycle = _add_loop(edges, twins[0], twins[1:])

    return ReductionArtifact(
        graph=build_graph(vertex_colors, edges, labels),
        cnf=cnf,
        variable_vertex=tuple(range(n)),
        true_loops=tuple(loops[0::2]),
        false_loops=tuple(loops[1::2]),
        clause_colors=clause_colors,
        balance_vertices=tuple(balance),
        balance_cycle=balance_cycle,
    )


def gadget_map(art: ReductionArtifact) -> GadgetMap:
    """The artifact's sidecar map, naming vertices as the gadget graph does;
    the clause and balance colors are the graph's own labels and stay there."""
    g = art.graph
    n = art.cnf.num_vars
    cycles = [*art.true_loops, *art.false_loops]
    if art.balance_cycle is not None:
        cycles.append(art.balance_cycle)
    # one gather of the vertices of every cycle, sliced per cycle
    names = g.vertex_names
    vertices = [names[v] for v in g.tails[[e for c in cycles for e in c.edge_ids]].tolist()]
    named = []
    at = 0
    for c in cycles:
        named.append(tuple(vertices[at:at + len(c)]))
        at += len(c)
    return GadgetMap(
        num_vars=n,
        true_loops=dict(enumerate(named[:n], start=1)),
        false_loops=dict(enumerate(named[n:2 * n], start=1)),
        clauses=art.cnf.clauses,
        balance_cycle=named[2 * n] if art.balance_cycle is not None else (),
    )


def _edge_sets(art: ReductionArtifact, s: CycleSet) -> set[frozenset[int]]:
    """The edge-id set of each cycle of ``s``, once ``s`` is valid: a simple
    cycle is fixed by its edges, whichever vertex it is written from."""
    try:
        validate_cycle_set(art.graph, s)
    except CycleSetError as exc:
        raise InvalidSolution(str(exc)) from exc
    return {frozenset(c.edge_ids) for c in s.cycles}


def assignment_from_loops(
    loops: Sequence[tuple[Hashable, Hashable]], chosen: Collection[Hashable]
) -> dict[int, bool]:
    """The pullback rule: variable i is TRUE if its TRUE loop is chosen,
    FALSE if its FALSE loop is, and defaults to TRUE when neither is.
    ``loops[i-1]`` is variable i's (TRUE loop, FALSE loop), named any
    hashable way, the same way as in ``chosen``."""
    return {i: t in chosen or f not in chosen for i, (t, f) in enumerate(loops, start=1)}


def extract_assignment(art: ReductionArtifact, s: CycleSet) -> dict[int, bool]:
    """Read a truth assignment off a cycle set of the gadget graph.

    Loops are compared by their sets of edge ids, so a loop written from
    any of its vertices is found, and the two parallel self-loops of a
    variable in no clause stay apart.
    """
    loops = [(frozenset(t.edge_ids), frozenset(f.edge_ids))
             for t, f in zip(art.true_loops, art.false_loops)]
    return assignment_from_loops(loops, _edge_sets(art, s))


def clause_colors_covered(art: ReductionArtifact, s: CycleSet) -> int:
    """How many clause colors appear on the covered vertices of ``s``.

    Variable and balance colors are excluded.  Every covered clause color
    certifies a literal vertex on a chosen loop, so the pulled-back
    assignment satisfies at least this many clauses.
    """
    _edge_sets(art, s)  # validity check
    covered = {
        art.graph.vertex_colors[v]
        for c in s.cycles
        for v in cycle_vertices(art.graph, c)
    }
    return len(covered.intersection(art.clause_colors))


def full_selection(art: ReductionArtifact, assignment: dict[int, bool]) -> CycleSet:
    """The cycle set induced by a total assignment: one loop per variable,
    plus the extra balance cycle when the construction has one.  It is
    canonical as built: each loop starts at its variable vertex, the
    smallest id on it, the loops come in variable order, and the twin cycle,
    which holds the highest ids, comes last."""
    cycles = [
        art.true_loops[i - 1] if assignment[i] else art.false_loops[i - 1]
        for i in range(1, art.cnf.num_vars + 1)
    ]
    if art.balance_cycle is not None:
        cycles.append(art.balance_cycle)
    return CycleSet(tuple(cycles))


@dataclass(frozen=True)
class LReductionCheck:
    """Recorded approximation-preservation quantities for one gadget.

    ``opt_sat`` / ``measure_sat`` live on the formula side (satisfied
    clauses), ``opt_colors`` / ``measure_colors`` on the graph side (colors
    in a cycle set).  The construction preserves approximation with
    constants alpha and beta when ``holds`` is true.
    """

    opt_sat: int
    opt_colors: int
    measure_colors: int
    measure_sat: int
    alpha: ClassVar[int] = 3
    beta: ClassVar[int] = 1

    @property
    def error_sat(self) -> int:
        return abs(self.opt_sat - self.measure_sat)

    @property
    def error_colors(self) -> int:
        return abs(self.opt_colors - self.measure_colors)

    def holds(self) -> bool:
        return (
            self.opt_colors <= self.alpha * self.opt_sat
            and self.error_sat <= self.beta * self.error_colors
        )


def l_reduction_check(
    art: ReductionArtifact,
    s: CycleSet,
    budget: SearchBudget | None = None,
) -> LReductionCheck:
    """Measure a candidate solution on both sides of the reduction."""
    opt_sat, _ = max_satisfiable(art.cnf)
    best = solve_with_stats(art.graph, Objective.MAX_COLORS, budget)[0]
    opt_colors = validate_cycle_set(art.graph, best).color_count
    measure_colors = validate_cycle_set(art.graph, s).color_count
    measure_sat = satisfied_count(art.cnf, extract_assignment(art, s))
    return LReductionCheck(
        opt_sat=opt_sat,
        opt_colors=opt_colors,
        measure_colors=measure_colors,
        measure_sat=measure_sat,
    )
