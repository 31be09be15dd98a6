"""Compile CNF formulas into vertex-colored trading graphs.

Each variable becomes a vertex carrying two loops back to itself, one for
TRUE and one for FALSE; each clause gets its own color, and every literal of
a clause becomes a vertex of that color spliced into the loop matching its
polarity, so the loop stays a single cycle through the variable vertex.  The
two loops of a variable share only the variable vertex, so any set of
vertex-disjoint cycles picks at most one of them: the pick is the variable's
truth value, and a clause color appears in the cycles exactly when some pick
satisfies the clause.

Three gadget flavors are built here:

* plain        - variable vertices share one color; colors = clauses + 1.
* balanced     - padding vertices of one fresh "balance" color stretch every
                 loop to the same length, so vertex-maximality can no longer
                 discriminate between truth assignments.
* two-per-color - variable vertices get unique colors, every balance vertex
                 gets its own fresh color, and one extra cycle carries a
                 twin vertex of each balance color; no color appears on more
                 than two vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Sequence

from .exact import SearchBudget, solve_tex
from .graph import (
    Cycle,
    ColoredDigraph,
    CycleSet,
    CycleSetError,
    build_graph,
    canonical_cycle,
    canonical_cycle_set,
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

    Loops are stored as cycles of the *current* graph (balance-augmented
    after padding).  ``variable_vertex[i-1]``, ``true_loops[i-1]``,
    ``false_loops[i-1]`` and ``variable_colors[i-1]`` describe variable i;
    ``clause_colors[j]`` is the color of clause j (0-based).
    """

    graph: ColoredDigraph
    cnf: CnfInstance
    variable_vertex: tuple[int, ...]
    true_loops: tuple[Cycle, ...]
    false_loops: tuple[Cycle, ...]
    variable_colors: tuple[int, ...]
    clause_colors: tuple[int, ...]
    balance_vertices: tuple[int, ...] = ()
    balance_colors: frozenset[int] = frozenset()
    balance_cycle: Cycle | None = None

    @property
    def num_balance(self) -> int:
        return len(self.balance_vertices)


def _empty_artifact(cnf: CnfInstance) -> ReductionArtifact:
    return ReductionArtifact(
        graph=build_graph([], []),
        cnf=cnf,
        variable_vertex=(),
        true_loops=(),
        false_loops=(),
        variable_colors=(),
        clause_colors=(),
    )


def _add_loop(edges: list[tuple[int, int]], start: int, chain: list[int]) -> Cycle:
    """Append the edges of start -> chain... -> start and return them as a cycle."""
    path = [start] + chain
    first = len(edges)
    edges.extend(zip(path, path[1:] + [start]))
    return Cycle(tuple(range(first, len(edges))))


def _build_gadget(cnf: CnfInstance, unique_var_colors: bool) -> ReductionArtifact:
    n = cnf.num_vars
    q = cnf.num_clauses
    if n == 0:
        return _empty_artifact(cnf)

    if unique_var_colors:
        var_colors = list(range(n))
        labels = [f"x{i}" for i in range(1, n + 1)]
        first_clause_color = n
    else:
        var_colors = [0] * n
        labels = ["var"]
        first_clause_color = 1
    labels += [f"clause{j}" for j in range(1, q + 1)]
    clause_colors = tuple(first_clause_color + j for j in range(q))

    vertex_colors = list(var_colors)
    # chains[2*i] and chains[2*i + 1] follow variable vertex i on its TRUE
    # and its FALSE loop; the loops take edge ids in that order
    chains: list[list[int]] = [[] for _ in range(2 * n)]
    for j, clause in enumerate(cnf.clauses):
        for lit in clause:
            chains[2 * (abs(lit) - 1) + (lit < 0)].append(len(vertex_colors))
            vertex_colors.append(clause_colors[j])

    edges: list[tuple[int, int]] = []
    loops = [_add_loop(edges, k // 2, chain) for k, chain in enumerate(chains)]
    return ReductionArtifact(
        graph=build_graph(vertex_colors, edges, labels),
        cnf=cnf,
        variable_vertex=tuple(range(n)),
        true_loops=tuple(loops[0::2]),
        false_loops=tuple(loops[1::2]),
        variable_colors=tuple(var_colors),
        clause_colors=clause_colors,
    )


def build_sat_graph(cnf: CnfInstance) -> ReductionArtifact:
    """Plain gadget: all variable vertices share one color, one color per clause.

    Total vertices = num_vars + total (deduplicated) literals; total colors
    = num_clauses + 1.  A cycle set covering every color exists iff the
    formula is satisfiable.
    """
    return _build_gadget(cnf, unique_var_colors=False)


def _pad(
    art: ReductionArtifact,
    unique_balance_colors: bool,
    with_balance_cycle: bool,
) -> ReductionArtifact:
    """Rebuild the gadget with every loop padded to the same length.

    All loops grow to (longest original length + 1) by appending balance
    vertices immediately before the edge returning to the variable vertex.
    """
    if art.balance_vertices or art.balance_cycle is not None:
        raise ValueError("artifact is already balance-padded")
    n = art.cnf.num_vars
    if n == 0:
        return art
    g = art.graph
    target = max(len(c) for c in art.true_loops + art.false_loops) + 1

    vertex_colors = list(g.vertex_colors)
    labels = list(g.color_labels or ())
    balance_vertices: list[int] = []
    balance_colors: list[int] = []
    shared_color = g.color_count  # only used when balance colors are shared
    if not unique_balance_colors:
        labels.append("balance")

    chains: list[list[int]] = []  # laid out as in _build_gadget
    for i in range(n):
        for loop in (art.true_loops[i], art.false_loops[i]):
            chain = list(cycle_vertices(g, loop)[1:])  # loop starts at the variable vertex
            for _ in range(target - len(loop)):
                vid = len(vertex_colors)
                if unique_balance_colors:
                    color = g.color_count + len(balance_vertices)
                    labels.append(f"balance{len(balance_vertices) + 1}")
                else:
                    color = shared_color
                vertex_colors.append(color)
                balance_vertices.append(vid)
                balance_colors.append(color)
                chain.append(vid)
            chains.append(chain)

    balance_cycle_vertices: list[int] = []
    if with_balance_cycle:
        # one twin vertex per balance color, forming one extra cycle
        for color in balance_colors:
            balance_cycle_vertices.append(len(vertex_colors))
            vertex_colors.append(color)

    edges: list[tuple[int, int]] = []
    loops = [_add_loop(edges, k // 2, chain) for k, chain in enumerate(chains)]
    balance_cycle = None
    if with_balance_cycle and balance_cycle_vertices:
        balance_cycle = _add_loop(edges, balance_cycle_vertices[0], balance_cycle_vertices[1:])

    return ReductionArtifact(
        graph=build_graph(vertex_colors, edges, labels),
        cnf=art.cnf,
        variable_vertex=art.variable_vertex,
        true_loops=tuple(loops[0::2]),
        false_loops=tuple(loops[1::2]),
        variable_colors=art.variable_colors,
        clause_colors=art.clause_colors,
        balance_vertices=tuple(balance_vertices),
        balance_colors=frozenset(balance_colors),
        balance_cycle=balance_cycle,
    )


def add_balance_vertices(art: ReductionArtifact) -> ReductionArtifact:
    """Pad all loops to equal length with vertices of one fresh balance color.

    Afterwards every combination of one loop per variable covers the same
    number of vertices, so vertex-maximality no longer discriminates between
    truth assignments, and the balance color is covered by every nonempty
    choice of loops.
    """
    return _pad(art, unique_balance_colors=False, with_balance_cycle=False)


def build_2pc_graph(cnf: CnfInstance) -> ReductionArtifact:
    """Gadget with at most two vertices of any color (agents bring <= 2 items).

    Requires clauses of at most 2 literals.  Variable vertices get unique
    colors, every balance vertex gets its own fresh color, and one extra
    cycle carries a twin vertex of every balance color so all balance colors
    are guaranteed coverable without touching any loop choice.
    """
    for j, clause in enumerate(cnf.clauses):
        if len(clause) > 2:
            raise ClauseTooLarge(f"clause {j + 1} has {len(clause)} literals (max 2)")
    plain = _build_gadget(cnf, unique_var_colors=True)
    return _pad(plain, unique_balance_colors=True, with_balance_cycle=True)


def gadget_map(art: ReductionArtifact) -> GadgetMap:
    """The artifact's sidecar map, naming vertex v by ``str(v)`` as
    ``serialize_graph`` does by default."""
    g = art.graph
    n = art.cnf.num_vars
    loops = [tuple(str(v) for v in cycle_vertices(g, c)) for c in art.true_loops + art.false_loops]
    return GadgetMap(
        num_vars=n,
        true_loops=dict(enumerate(loops[:n], start=1)),
        false_loops=dict(enumerate(loops[n:], start=1)),
        clause_color_labels=dict(enumerate(map(g.color_label, art.clause_colors), start=1)),
        balance_color_labels=tuple(map(g.color_label, sorted(art.balance_colors))),
        clauses=art.cnf.clauses,
    )


def _canonical_cycles(art: ReductionArtifact, s: CycleSet) -> set[Cycle]:
    try:
        validate_cycle_set(art.graph, s)
    except CycleSetError as exc:
        raise InvalidSolution(str(exc)) from exc
    return {canonical_cycle(art.graph, c) for c in s.cycles}


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

    Loops are compared as canonical cycles, by edge id, so the two parallel
    self-loops of a variable in no clause stay apart.
    """
    chosen = _canonical_cycles(art, s)
    g = art.graph
    loops = [(canonical_cycle(g, t), canonical_cycle(g, f))
             for t, f in zip(art.true_loops, art.false_loops)]
    return assignment_from_loops(loops, chosen)


def clause_colors_covered(art: ReductionArtifact, s: CycleSet) -> int:
    """How many clause colors appear on the covered vertices of ``s``.

    Variable and balance colors are excluded.  Every covered clause color
    certifies a literal vertex on a chosen loop, so the pulled-back
    assignment satisfies at least this many clauses.
    """
    _canonical_cycles(art, s)  # validity check
    covered = {
        art.graph.vertex_colors[v]
        for c in s.cycles
        for v in cycle_vertices(art.graph, c)
    }
    return len(covered.intersection(art.clause_colors))


def full_selection(art: ReductionArtifact, assignment: dict[int, bool]) -> CycleSet:
    """The cycle set induced by a total assignment: one loop per variable,
    plus the extra balance cycle when the construction has one."""
    cycles = [
        art.true_loops[i - 1] if assignment[i] else art.false_loops[i - 1]
        for i in range(1, art.cnf.num_vars + 1)
    ]
    if art.balance_cycle is not None:
        cycles.append(art.balance_cycle)
    return canonical_cycle_set(art.graph, CycleSet(tuple(cycles)))


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
    alpha: int = 3
    beta: int = 1

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
    alpha: int = 3,
    beta: int = 1,
) -> LReductionCheck:
    """Measure a candidate solution on both sides of the reduction."""
    opt_sat, _ = max_satisfiable(art.cnf)
    opt_colors = validate_cycle_set(art.graph, solve_tex(art.graph, budget)).color_count
    measure_colors = validate_cycle_set(art.graph, s).color_count
    measure_sat = satisfied_count(art.cnf, extract_assignment(art, s))
    return LReductionCheck(
        opt_sat=opt_sat,
        opt_colors=opt_colors,
        measure_colors=measure_colors,
        measure_sat=measure_sat,
        alpha=alpha,
        beta=beta,
    )
