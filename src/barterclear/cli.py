"""Command-line surface tying the solvers, reductions and formats together.

Exit codes: 0 success (or decision "yes"), 1 decision "no", 2 input error,
3 search budget exceeded, 4 internal failure (the solver ran out of stack
or memory, e.g. the color search on a clearing of more than about 990
disjoint cycles; the question is left unanswered).

``main`` hands a command's arguments straight to that command's parser, so
each argument is classified once; an argument a command does not know is
reported with the command's usage line, exit code 2.

``clear`` prints a run report, the CLI's own output format, one
``<key> <value>`` line each: ``objective``, ``method``, ``vertices``,
``colors``, ``total-colors``, ``nodes``, ``seconds`` and, with
``--method approx`` only, ``guarantee``; the solution text follows, byte
for byte as written to ``--output``.

Every file is read and written as UTF-8, whatever the locale, through one
reader and one writer.  The reader decodes the raw bytes, drops one
leading byte-order mark and keeps the line ends: every parser splits lines
with ``str.splitlines`` or ``str.split``, which read ``\r\n`` and ``\r``
as text mode would, so a CRLF or CR file gives the answers and errors of
its LF copy.  ``clear``, ``reduce`` and ``gen`` write their outputs in
place, with ``\n`` line ends: an existing file is overwritten from its
first byte and cut to the new length, never first truncated to zero, and
nothing is fsynced.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from functools import cache
from time import monotonic

from .approx import approx_jpc
from .exact import (
    BudgetExceeded,
    Objective,
    SearchBudget,
    brute_force_best,
    solve_with_stats,
)
from .formats import (
    gen_random,
    parse_cycles,
    parse_dimacs,
    parse_float,
    parse_gadget_map,
    parse_graph,
    parse_integer,
    parse_solution,
    parse_wantlist,
    serialize_gadget_map,
    serialize_graph,
    serialize_solution,
)
from .graph import (
    validate_cycle_set,
    without_self_loops,
)
from .reductions import (
    GADGET_VARIANTS,
    InvalidSolution,
    assignment_from_loops,
    build_sat_graph,
    gadget_map,
)
from .sat import is_satisfiable, max_satisfiable, satisfied_count

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

_OBJECTIVES = [objective.value for objective in Objective]


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(node_limit=args.budget_nodes, time_limit=args.budget_secs)


def _read(path: str) -> str:
    """The text of the file at ``path``, decoded as UTF-8 less one leading
    byte-order mark, line ends kept."""
    with open(path, "rb", buffering=0) as f:
        return f.read().decode("utf-8-sig")


def _load_graph(args: argparse.Namespace):
    text = _read(args.input)
    return parse_wantlist(text) if args.wantlist else parse_graph(text)


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 over the old bytes, with as many
    ``os.write`` calls as it takes: a regular file is cut to the new length
    only after the write, since truncating it to zero first makes its close
    start writeback.  A new file gets the mode ``Path.write_text`` gives."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="market file (a graph file by default)")
    sub.add_argument("--wantlist", action="store_true", help="input is a want-list")


def _add_budget_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-nodes", type=parse_integer, default=SearchBudget().node_limit)
    sub.add_argument("--budget-secs", type=parse_float, default=SearchBudget().time_limit)


def _print_counts(g, metrics) -> None:
    print(f"vertices {metrics.vertex_count}")
    print(f"colors {metrics.color_count} of {g.color_count}")


def cmd_clear(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.no_self_trades:
        g = without_self_loops(g)
    t0 = monotonic()
    if args.method == "approx":
        solution, guarantee = approx_jpc(g)
        nodes, guarantee_line = 0, f"guarantee {guarantee}\n"
    else:
        solution, stats = solve_with_stats(g, Objective(args.objective), _budget(args))
        nodes, guarantee_line = stats.nodes, ""
    seconds = monotonic() - t0
    # a run never emits a solution it cannot verify
    metrics = validate_cycle_set(g, solution)
    text = serialize_solution(g, solution)
    _write_output(args.output, text)
    sys.stdout.write(f"objective {args.objective}\nmethod {args.method}\n"
                     f"vertices {metrics.vertex_count}\ncolors {metrics.color_count}\n"
                     f"total-colors {g.color_count}\nnodes {nodes}\nseconds {seconds!r}\n"
                     f"{guarantee_line}{text}")
    if args.min_vertices is not None and metrics.vertex_count < args.min_vertices:
        return EXIT_NO
    return EXIT_OK


def cmd_decide(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    threshold = args.objective.endswith("-x")
    if threshold and args.x is None:
        raise ValueError(f"--x is required for {args.objective}")
    name = {"exchange-x": "max-size", "maxtex-x": "maxtex"}.get(args.objective, args.objective)
    metrics = validate_cycle_set(g, solve_with_stats(g, Objective(name), _budget(args))[0])
    if threshold:  # at least x vertices
        answer = metrics.vertex_count >= args.x
    else:  # every color
        answer = metrics.color_count == g.color_count
    print("YES" if answer else "NO")
    _print_counts(g, metrics)
    return EXIT_OK if answer else EXIT_NO


def cmd_reduce(args: argparse.Namespace) -> int:
    art = build_sat_graph(parse_dimacs(_read(args.cnf)), args.variant)
    _write_output(args.output, serialize_graph(art.graph))
    _write_output(args.map, serialize_gadget_map(gadget_map(art)))
    print(f"vertices {art.graph.vertex_count}")
    print(f"colors {art.graph.color_count}")
    print(f"balance-vertices {art.num_balance}")
    return EXIT_OK


def _rotated(cycle: tuple[str, ...]) -> tuple[str, ...]:
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def cmd_pullback(args: argparse.Namespace) -> int:
    gm = parse_gadget_map(_read(args.map))
    cycles = parse_cycles(_read(args.solution))
    # record by record, a repeated vertex before an overlap, as verify checks;
    # a gadget names its vertices by their ids, so the lowest id of an
    # overlap is its shortest, then least, name
    seen: set[str] = set()
    for cycle in cycles:
        if len(set(cycle)) < len(cycle):
            raise InvalidSolution(f"cycle {' '.join(cycle)} is not simple")
        if not seen.isdisjoint(cycle):
            shared = min(seen.intersection(cycle), key=lambda v: (len(v), v))
            raise InvalidSolution(f"vertex {shared} is in two cycles")
        seen.update(cycle)
    # the map has no graph, so a cycle is named by its vertex names in cycle
    # order, rotated to start at the smallest name
    loops = [(_rotated(gm.true_loops[i]), _rotated(gm.false_loops[i]))
             for i in range(1, gm.num_vars + 1)]
    known = {loop for pair in loops for loop in pair}
    if gm.balance_cycle:
        known.add(_rotated(gm.balance_cycle))
    stray = next((c for c in cycles if _rotated(c) not in known), None)
    if stray is not None:
        raise InvalidSolution(f"C {' '.join(stray)} is neither a loop nor the balance cycle "
                              "of the gadget map")
    assignment = assignment_from_loops(loops, set(map(_rotated, cycles)))
    for i in range(1, gm.num_vars + 1):
        print(f"x{i} {'T' if assignment[i] else 'F'}")
    cnf = gm.cnf()
    print(f"satisfied {satisfied_count(cnf, assignment)} of {cnf.num_clauses}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.graph_file is not None:
        if args.objective is None:
            raise ValueError("--objective is required with --graph")
        if args.sat or args.maxsat:
            raise ValueError(f"--{'sat' if args.sat else 'maxsat'} is not used with --graph")
        g = parse_graph(_read(args.graph_file))
        best = brute_force_best(g, Objective(args.objective))
        _print_counts(g, validate_cycle_set(g, best))
        sys.stdout.write(serialize_solution(g, best))
        return EXIT_OK
    if args.objective is not None:
        raise ValueError("--objective is not used with --cnf")
    if not args.sat and not args.maxsat:
        raise ValueError("--sat or --maxsat is required with --cnf")
    cnf = parse_dimacs(_read(args.cnf))
    if args.sat:
        answer = is_satisfiable(cnf)
        print("SATISFIABLE" if answer else "UNSATISFIABLE")
        return EXIT_OK if answer else EXIT_NO
    count, witness = max_satisfiable(cnf)
    print(f"max-satisfiable {count} of {cnf.num_clauses}")
    for i in range(1, cnf.num_vars + 1):
        print(f"x{i} {'T' if witness[i] else 'F'}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    g = gen_random(args.vertices, args.colors, args.edge_prob, args.seed)
    _write_output(args.output, serialize_graph(g))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph_file))
    metrics = validate_cycle_set(g, parse_solution(_read(args.solution), g))
    _print_counts(g, metrics)
    print(f"tropical {'yes' if metrics.color_count == g.color_count else 'no'}")
    return EXIT_OK


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommands' parsers by name, built once
    per process: building them costs about ten times as much as a parse."""
    parser = argparse.ArgumentParser(
        prog="barterclear",
        description="Barter-exchange clearing over vertex-colored trading graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    clear = sub.add_parser("clear", help="solve a clearing instance")
    _add_input_options(clear)
    clear.add_argument("--objective", required=True, choices=_OBJECTIVES)
    clear.add_argument("--method", default="exact", choices=["exact", "approx"])
    clear.add_argument("--min-vertices", type=parse_integer, default=None,
                       help="exit 1 unless the solution trades at least this many items")
    clear.add_argument("--no-self-trades", action="store_true",
                       help="drop self-loop edges before solving")
    _add_budget_options(clear)
    clear.add_argument("--output", required=True, help="solution file to write")
    clear.set_defaults(func=cmd_clear)

    decide = sub.add_parser("decide", help="answer a decision problem (exit 0 yes, 1 no)")
    _add_input_options(decide)
    decide.add_argument(
        "--objective",
        required=True,
        choices=["exchange-x", "tex", "tmaxex", "maxtex-x"],
    )
    decide.add_argument("--x", type=parse_integer, default=None, help="vertex threshold")
    _add_budget_options(decide)
    decide.set_defaults(func=cmd_decide)

    reduce_ = sub.add_parser("reduce", help="compile a DIMACS CNF into a gadget graph")
    reduce_.add_argument("--cnf", required=True)
    reduce_.add_argument("--variant", default="plain", choices=GADGET_VARIANTS)
    reduce_.add_argument("--output", required=True, help="graph file to write")
    reduce_.add_argument("--map", required=True, help="sidecar map file to write")
    reduce_.set_defaults(func=cmd_reduce)

    pullback = sub.add_parser("pullback", help="read a truth assignment off a solution")
    pullback.add_argument("--map", required=True)
    pullback.add_argument("--solution", required=True)
    pullback.set_defaults(func=cmd_pullback)

    oracle = sub.add_parser("oracle", help="brute-force ground truth (small inputs)")
    source = oracle.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", dest="graph_file")
    source.add_argument("--cnf")
    oracle.add_argument("--objective", choices=_OBJECTIVES, default=None)
    mode = oracle.add_mutually_exclusive_group()
    mode.add_argument("--sat", action="store_true")
    mode.add_argument("--maxsat", action="store_true")
    oracle.set_defaults(func=cmd_oracle)

    gen = sub.add_parser("gen", help="generate a seeded random market")
    gen.add_argument("--vertices", type=parse_integer, required=True)
    gen.add_argument("--colors", type=parse_integer, required=True)
    gen.add_argument("--edge-prob", type=parse_float, required=True)
    gen.add_argument("--seed", type=parse_integer, required=True)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="validate a solution against its graph")
    verify.add_argument("--graph", dest="graph_file", required=True)
    verify.add_argument("--solution", required=True)
    verify.set_defaults(func=cmd_verify)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` when None) and
    return its exit code.  A command's arguments go straight to its own
    parser, as argparse's top-level pass would only classify them once more;
    the top-level parser reads only an argv that names no command, such as
    an empty one or ``-h``."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (RecursionError, MemoryError) as exc:
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
