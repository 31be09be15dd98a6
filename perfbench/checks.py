"""Answer checks that share no code with barterclear.

Every check here reads the program's output files or printed text and
compares them with the benchmark's own model of the input, or with a
quantity computed by a different algorithm than the program's: a sparse
min-cost bipartite matching for the item optimum, an enumeration of simple
cycles and their disjoint families for the colour optima, and a plain
clause count for SAT pullbacks.  A failed check raises ``WrongAnswer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching


class WrongAnswer(AssertionError):
    """An output of the program disagrees with the benchmark's own check."""


@dataclass(frozen=True)
class Market:
    """The benchmark's model of one input: item name -> agent, and the set
    of (giver, wanted item) edges.  Parallel edges collapse; they never
    change which cycles exist."""

    agent: dict[str, str]
    edges: frozenset[tuple[str, str]]

    @property
    def agents(self) -> int:
        return len(set(self.agent.values()))


def _lines(text: str):
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield tokens


def read_graph_text(text: str) -> Market:
    """``V <item> <agent>`` / ``E <from> <to>`` records."""
    agent: dict[str, str] = {}
    edges = set()
    for tokens in _lines(text):
        if tokens[0] == "V" and len(tokens) == 3:
            agent[tokens[1]] = tokens[2]
        elif tokens[0] == "E" and len(tokens) == 3:
            edges.add((tokens[1], tokens[2]))
        else:
            raise WrongAnswer(f"unexpected graph record {tokens!r}")
    return Market(agent, frozenset(edges))


def read_cycles(text: str) -> list[list[str]]:
    """``C <v1> ... <vk>`` records of a solution file."""
    cycles = []
    for tokens in _lines(text):
        if tokens[0] != "C" or len(tokens) < 2:
            raise WrongAnswer(f"unexpected solution record {tokens!r}")
        cycles.append(tokens[1:])
    return cycles


def cycle_counts(market: Market, cycles: list[list[str]]) -> tuple[int, int]:
    """(items traded, agents trading) of a set of vertex-disjoint simple
    cycles over the market's edges; raises on anything else."""
    seen: set[str] = set()
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise WrongAnswer(f"cycle {cycle} repeats an item")
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            if (u, v) not in market.edges:
                raise WrongAnswer(f"cycle {cycle} uses missing edge {u} -> {v}")
        if seen.intersection(cycle):
            raise WrongAnswer(f"cycle {cycle} overlaps another cycle")
        seen.update(cycle)
    return len(seen), len({market.agent[v] for v in seen})


def max_traded(market: Market) -> int:
    """Most items any cycle cover trades, by sparse min-cost perfect matching.

    Row u is the giver, column v the receiver.  A real edge costs 1 and the
    diagonal "keep your item" costs 2, so a perfect matching of cost C trades
    2n - C items.
    """
    names = sorted(market.agent)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    if n == 0:
        return 0
    cost = {(i, i): 2 for i in range(n)}
    for u, v in market.edges:
        cost[index[u], index[v]] = 1
    rows, cols = zip(*cost)
    matrix = csr_matrix((np.fromiter(cost.values(), float), (rows, cols)), shape=(n, n))
    matched_rows, matched_cols = min_weight_full_bipartite_matching(matrix)
    total = sum(cost[int(r), int(c)] for r, c in zip(matched_rows, matched_cols))
    return 2 * n - total


def simple_cycles(market: Market) -> list[tuple[str, ...]]:
    """Every simple cycle, each listed once from its least item."""
    succ: dict[str, list[str]] = {v: [] for v in market.agent}
    for u, v in market.edges:
        succ[u].append(v)
    found = []

    def extend(root: str, path: list[str], on_path: set[str]) -> None:
        for w in succ[path[-1]]:
            if w == root:
                found.append(tuple(path))
            elif w > root and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(root, path, on_path)
                on_path.discard(w)
                path.pop()

    for root in sorted(market.agent):
        extend(root, [root], {root})
    return found


def objective_key(objective: str, items: int, agents: int) -> tuple[int, ...]:
    """The components of (items, agents) an objective ranks, most
    significant first; components an objective leaves free are dropped."""
    return {
        "tex": (agents,),
        "maxtex": (agents, items),
        "tmaxex": (items, agents),
    }[objective]


def exhaustive_optima(market: Market) -> dict[str, tuple[int, ...]]:
    """Optimum ``objective_key`` per colour objective, by trying every family
    of pairwise disjoint simple cycles.  For small markets only."""
    cycles = [(frozenset(c), frozenset(market.agent[v] for v in c)) for c in simple_cycles(market)]
    outcomes: set[tuple[int, int]] = set()

    def choose(start: int, used: frozenset, agents: frozenset) -> None:
        outcomes.add((len(used), len(agents)))
        for i in range(start, len(cycles)):
            items, owners = cycles[i]
            if not used & items:
                choose(i + 1, used | items, agents | owners)

    choose(0, frozenset(), frozenset())
    return {
        objective: max(objective_key(objective, v, a) for v, a in outcomes)
        for objective in ("tex", "maxtex", "tmaxex")
    }


def printed(stdout: str) -> dict[str, list[str]]:
    """``key value ...`` lines of a CLI report: key -> the tokens after it."""
    return {tokens[0]: tokens[1:] for tokens in _lines(stdout)}


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got}, expected {want}")


class Reference:
    """Reference answers for one market, each computed on first use, so the
    cost falls on the first round's checks and never on set-up."""

    def __init__(self, market: Market) -> None:
        self.market = market

    @cached_property
    def max_traded(self) -> int:
        return max_traded(self.market)

    @cached_property
    def optima(self) -> dict[str, tuple[int, ...]]:
        return exhaustive_optima(self.market)


def check_clearing(market: Market, solution: str, report: str) -> tuple[int, int]:
    """Validate a written clearing and the counts its run report prints."""
    items, agents = cycle_counts(market, read_cycles(solution))
    lines = printed(report)
    expect_equal("reported vertices", lines.get("vertices"), [str(items)])
    expect_equal("reported colors", lines.get("colors"), [str(agents)])
    return items, agents


def check_max_size(ref: Reference, solution: str, report: str) -> None:
    items, _ = check_clearing(ref.market, solution, report)
    expect_equal("items traded", items, ref.max_traded)


def check_color_objective(ref: Reference, objective: str, solution: str, report: str,
                          answers: dict[str, tuple[int, int]], exhaustive: bool) -> None:
    """Check one colour objective's answer; ``answers`` holds the market's
    (items, agents) per objective answered so far, tex first."""
    items, agents = check_clearing(ref.market, solution, report)
    answers[objective] = (items, agents)
    tex = answers.get("tex")
    if objective == "tmaxex":
        expect_equal("tmaxex items", items, ref.max_traded)
        if tex and agents > tex[1]:
            raise WrongAnswer(f"tmaxex covers {agents} agents, tex only {tex[1]}")
    if objective == "maxtex" and tex:
        expect_equal("maxtex agents", agents, tex[1])
        if items < tex[0]:
            raise WrongAnswer(f"maxtex trades {items} items, tex {tex[0]}")
    if exhaustive:
        expect_equal(f"{objective} optimum", objective_key(objective, items, agents),
                     ref.optima[objective])


def check_gadget(clauses: list[tuple[int, ...]], num_vars: int, graph: str,
                 solution: str, outs: list[str]) -> int:
    """``reduce`` -> ``clear --objective tex`` -> ``pullback`` on a satisfiable
    formula: the clearing is tropical and the assignment satisfies every
    clause.  Returns the gadget's vertex count."""
    market = read_graph_text(graph)
    expect_equal("reduce vertices", printed(outs[0]).get("vertices"), [str(len(market.agent))])
    _, agents = check_clearing(market, solution, outs[1])
    expect_equal("tex agents (tropical)", agents, market.agents)
    assignment = read_assignment(outs[2])
    expect_equal("pulled-back variables", sorted(assignment), list(range(1, num_vars + 1)))
    expect_equal("satisfied clauses", satisfied(clauses, assignment), len(clauses))
    expect_equal("printed satisfied", printed(outs[2]).get("satisfied"),
                 [str(len(clauses)), "of", str(len(clauses))])
    return len(market.agent)


def read_assignment(stdout: str) -> dict[int, bool]:
    """``x<i> T|F`` lines printed by ``pullback``."""
    assignment = {}
    for tokens in _lines(stdout):
        if tokens[0].startswith("x") and len(tokens) == 2 and tokens[1] in ("T", "F"):
            assignment[int(tokens[0][1:])] = tokens[1] == "T"
    return assignment


def satisfied(clauses: list[tuple[int, ...]], assignment: dict[int, bool]) -> int:
    """Clauses with at least one literal made true; an unassigned variable
    makes none of its literals true."""
    return sum(
        1 for clause in clauses
        if any(assignment.get(abs(lit)) == (lit > 0) for lit in clause)
    )
