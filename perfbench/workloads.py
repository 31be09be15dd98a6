"""Seeded inputs and operations of the benchmark workloads.

``build(workload, seed, workdir)`` writes a workload's input files and
returns its round: the list of operations the benchmark repeats, in the same
order, for as long as a run lasts.  Each operation is one or more
``barterclear`` CLI calls from file to file, plus a check made with
``checks`` only.  The same seed gives the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import Market

# Exact solvers stop on nodes only: the time limit is out of reach, so a
# budget stop depends on the input and never on machine load.  The seeded
# inputs stay far below NODE_BUDGET: over seeds 1-20 of colors-market and
# 1-40 of sat-gadgets the largest search took 214 240 nodes.
# FAULT_NODE_BUDGET is the budget the known-failing gadgets exhaust.
NODE_BUDGET = 50_000_000
FAULT_NODE_BUDGET = 1_000_000
NO_TIME_LIMIT = ["--budget-secs", "1000000"]


def budget_args(nodes: int = NODE_BUDGET) -> list[str]:
    return ["--budget-nodes", str(nodes), *NO_TIME_LIMIT]


MAXSIZE_MARKETS = 4
MAXSIZE_ITEMS = 2000
WANTS_PER_ITEM = 5

COLOR_MARKETS = 200
COLOR_ITEMS, COLOR_AGENTS = 17, 5
SMALL_COLOR_MARKETS = 24
SMALL_COLOR_ITEMS, SMALL_COLOR_AGENTS = 9, 3
COLOR_WANTS = 2
COLOR_OBJECTIVES = ("tex", "tmaxex", "maxtex")

SAT_2PC_VARS = 6
SAT_2PC_FORMULAS = 96
SAT_3CNF_VARS, SAT_3CNF_CLAUSES = 3, 13
SAT_3CNF_FORMULAS = 12
# Formulas that hit the node budget on every machine: the search's bound
# ignores disjointness and cycle closure, so plain and balanced gadgets of
# 3-CNF from 5 variables up never finish within FAULT_NODE_BUDGET.  Fixed
# inputs, independent of --seed, so every run fails the same operations.
FAULT_SEED = 2016
FAULT_VARS, FAULT_CLAUSES = 5, 21

@dataclass
class Op:
    """One timed operation: CLI calls run in order, then ``check`` reads
    their printed output and files and returns the input vertices to credit.
    ``budget_stop`` marks an operation whose ``clear`` is known to stop on
    the node budget."""

    name: str
    steps: list[list[str]]
    check: Callable[[list[str]], int]
    budget_stop: bool = False


def _owners(rng: random.Random, items: int) -> list[str]:
    """Agents bringing one to five items each."""
    owners: list[str] = []
    while len(owners) < items:
        owners += [f"a{len(owners)}"] * rng.randint(1, 5)
    return owners[:items]


def _random_market(rng: random.Random, items: int, wants: int,
                   owners: list[str] | None = None) -> tuple[Market, list[tuple[str, str]]]:
    """A market where each item wants ``wants`` distinct other items drawn
    uniformly, and its edges in the order drawn."""
    names = [f"i{v}" for v in range(items)]
    owners = owners or _owners(rng, items)
    edges = []
    for u in range(items):
        for v in rng.sample(range(items - 1), wants):
            edges.append((names[u], names[v if v < u else v + 1]))
    return Market(dict(zip(names, owners)), frozenset(edges)), edges


def graph_text(agent: dict[str, str], edges: list[tuple[str, str]]) -> str:
    lines = [f"V {item} {owner}" for item, owner in agent.items()]
    lines += [f"E {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def wantlist_text(agent: dict[str, str], edges: list[tuple[str, str]]) -> str:
    wants: dict[str, list[str]] = {item: [] for item in agent}
    for u, v in edges:
        wants[u].append(v)
    return "".join(f"{owner} {item} : {' '.join(wants[item])}\n" for item, owner in agent.items())


# ---------------------------------------------------------------------------
# maxsize-market


def _maxsize(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for m in range(MAXSIZE_MARKETS):
        market, edges = _random_market(rng, MAXSIZE_ITEMS, WANTS_PER_ITEM)
        wantlist = m % 2 == 1
        src = workdir / (f"m{m}.wants" if wantlist else f"m{m}.graph")
        src.write_text((wantlist_text if wantlist else graph_text)(market.agent, edges))
        sol = workdir / f"m{m}.sol"

        def check(out, ref=checks.Reference(market), sol=sol):
            checks.check_max_size(ref, sol.read_text(), out[0])
            return MAXSIZE_ITEMS

        argv = ["clear", "--input", str(src)] + (["--wantlist"] if wantlist else [])
        argv += ["--objective", "max-size", "--output", str(sol)]
        ops.append(Op(src.name, [argv], check))
    return ops


# ---------------------------------------------------------------------------
# colors-market


def _colored_market(rng: random.Random, items: int,
                    agents: int) -> tuple[Market, list[tuple[str, str]]]:
    owners = [f"c{v % agents}" for v in range(items)]
    rng.shuffle(owners)
    return _random_market(rng, items, COLOR_WANTS, owners)


def _colors(rng: random.Random, workdir: Path) -> list[Op]:
    sizes = [(COLOR_ITEMS, COLOR_AGENTS)] * COLOR_MARKETS
    sizes += [(SMALL_COLOR_ITEMS, SMALL_COLOR_AGENTS)] * SMALL_COLOR_MARKETS
    ops = []
    for m, (items, agents) in enumerate(sizes):
        market, edges = _colored_market(rng, items, agents)
        src = workdir / f"c{m}.graph"
        src.write_text(graph_text(market.agent, edges))
        ref = checks.Reference(market)
        answers: dict[str, tuple[int, int]] = {}
        for objective in COLOR_OBJECTIVES:
            sol = workdir / f"c{m}.{objective}.sol"

            def check(out, ref=ref, objective=objective, sol=sol, answers=answers,
                      exhaustive=items == SMALL_COLOR_ITEMS):
                checks.check_color_objective(ref, objective, sol.read_text(), out[0],
                                             answers, exhaustive)
                return len(ref.market.agent)

            argv = ["clear", "--input", str(src), "--objective", objective,
                    *budget_args(), "--output", str(sol)]
            ops.append(Op(f"{src.name}:{objective}", [argv], check))
    return ops


# ---------------------------------------------------------------------------
# sat-gadgets


def planted_cnf(rng: random.Random, num_vars: int, num_clauses: int,
                width: int) -> list[tuple[int, ...]]:
    """Random clauses over distinct variables, each satisfied by a hidden
    assignment drawn first."""
    truth = {i: rng.random() < 0.5 for i in range(1, num_vars + 1)}
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < num_clauses:
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, num_vars + 1), width))
        if any(truth[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return clauses


def dimacs_text(num_vars: int, clauses: list[tuple[int, ...]]) -> str:
    body = "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses)
    return f"c planted satisfiable\np cnf {num_vars} {len(clauses)}\n{body}"


def _gadget_op(workdir: Path, name: str, variant: str, num_vars: int,
               clauses: list[tuple[int, ...]], budget_stop: bool = False) -> Op:
    """``reduce`` -> ``clear --objective tex`` -> ``pullback`` on one formula."""
    cnf, graph, gmap, sol = (workdir / f"{name}.{ext}" for ext in ("cnf", "graph", "map", "sol"))
    cnf.write_text(dimacs_text(num_vars, clauses))

    def check(out):
        return checks.check_gadget(clauses, num_vars, graph.read_text(), sol.read_text(), out)

    steps = [
        ["reduce", "--cnf", str(cnf), "--variant", variant,
         "--output", str(graph), "--map", str(gmap)],
        ["clear", "--input", str(graph), "--objective", "tex",
         *budget_args(FAULT_NODE_BUDGET if budget_stop else NODE_BUDGET), "--output", str(sol)],
        ["pullback", "--map", str(gmap), "--solution", str(sol)],
    ]
    return Op(name, steps, check, budget_stop)


def _sat(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for f in range(SAT_2PC_FORMULAS):
        clauses = planted_cnf(rng, SAT_2PC_VARS, SAT_2PC_VARS, 2)
        ops.append(_gadget_op(workdir, f"s{f}-2pc", "2pc", SAT_2PC_VARS, clauses))
    for f in range(SAT_3CNF_FORMULAS):
        clauses = planted_cnf(rng, SAT_3CNF_VARS, SAT_3CNF_CLAUSES, 3)
        ops.append(_gadget_op(workdir, f"s{f}-plain", "plain", SAT_3CNF_VARS, clauses))
    fault = planted_cnf(random.Random(FAULT_SEED), FAULT_VARS, FAULT_CLAUSES, 3)
    for variant in ("plain", "balanced"):
        ops.append(_gadget_op(workdir, f"fault-{variant}", variant, FAULT_VARS, fault,
                              budget_stop=True))
    return ops


WORKLOADS = {
    "maxsize-market": _maxsize,
    "colors-market": _colors,
    "sat-gadgets": _sat,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files for ``seed`` and return its round."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
