"""Text formats: graphs, solutions, want-lists, DIMACS CNF, gadget maps, reports.

Graph files carry one record per line (`#` starts a comment, tokens are
whitespace-separated): ``V <vertex-id> <color-label>`` declares a vertex,
``E <from-id> <to-id>`` an edge; repeated E records make parallel edges.
Solution files carry ``C <v1> <v2> ... <vk>`` records meaning the cycle
v1 -> v2 -> ... -> vk -> v1; when parallel edges exist between consecutive
vertices the lowest edge id is taken.  Want-lists use the community format
``<agent> <item> : <item>*``.  Parsing a serialized canonical object gives
the object back exactly.

Graph files are parsed in bulk: the text is split once, the record shapes
are checked over all records at once, and names, labels and endpoints are
sliced out of the flat tokens, with no Python loop over the records.  Only
when a check fails does a record-at-a-time walk find the error to report,
so the errors and their precedence are those of reading one record at a
time.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

import numpy as np

from .graph import (
    ColoredDigraph,
    CycleSet,
    build_graph,
    canonical_cycle_vertices,
    cycle_set_from_vertices,
    NonexistentEdge,
)
from .sat import CnfInstance, EmptyClause, LiteralOutOfRange


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateItem(ParseError):
    """An item name is declared twice in a want-list."""


class UnknownWantedItem(ParseError):
    """A want-list entry wants an item that is never declared."""


class BadParameters(ValueError):
    """Invalid random-instance parameters."""


def _lines(text: str) -> list[str]:
    """The lines of ``text`` with comments stripped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return lines


def _records(text: str):
    """Non-empty, comment-stripped (line_number, tokens) pairs."""
    for lineno, tokens in enumerate(map(str.split, _lines(text)), start=1):
        if tokens:
            yield lineno, tokens


def _vertex_ids(names: Iterable[str], index: dict[str, int], count: int) -> np.ndarray:
    """The ids of ``count`` declared names as an int array; the caller finds
    the first undeclared one when this raises KeyError."""
    return np.fromiter(map(index.__getitem__, names), dtype=np.intp, count=count)


# ---------------------------------------------------------------------------
# graph files


def serialize_graph(g: ColoredDigraph) -> str:
    """Graph text form, naming vertices and colors as the graph does."""
    names, labels = g.vertex_names, g.color_labels
    lines = [f"V {name} {labels[c]}" for name, c in zip(names, g.vertex_colors.tolist())]
    lines += [f"E {names[u]} {names[v]}" for u, v in g.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph(text: str) -> ColoredDigraph:
    """Parse the graph text form.

    Vertex ids are assigned densely in declaration order and color ids in
    order of first label appearance, so serializing the result reproduces
    the input.  The text is split once and checked in bulk: every non-blank
    record has three tokens and kind ``V`` or ``E``, no vertex is declared
    twice and every endpoint is declared.  On a failed check the error is
    that of reading one record at a time: the first malformed record or
    duplicate vertex in file order, and only when there is none, the first
    undeclared endpoint.
    """
    kind, firsts, seconds = _graph_records(text)
    is_v, is_e = kind.translate(_IS_V), kind.translate(_IS_E)
    names = list(compress(firsts, is_v))
    index = dict(zip(names, range(len(names))))
    if len(index) < len(names):
        raise _graph_error(text)  # a duplicate vertex
    edge_count = len(kind) - len(names)
    try:
        tails = _vertex_ids(compress(firsts, is_e), index, edge_count)
        heads = _vertex_ids(compress(seconds, is_e), index, edge_count)
    except KeyError:
        raise _graph_error(text) from None  # an undeclared endpoint
    labels = list(compress(seconds, is_v))
    unique_labels = dict.fromkeys(labels)
    colors = _vertex_ids(labels, dict(zip(unique_labels, range(len(unique_labels)))), len(labels))
    return build_graph(colors, np.array([tails, heads]).T, list(unique_labels), names)


def _graph_records(text: str) -> tuple[bytes, list[str], list[str]]:
    """The kind (``V`` or ``E``) of every record of a graph file, as bytes,
    and the first and second token after it, from one split of the text.
    Raises the file's first error unless every non-blank record has three
    tokens and kind ``V`` or ``E``; the lines and the token list are freed
    on return."""
    lines = _lines(text)
    tokens = ("\n".join(lines) if "#" in text else text).split()
    kinds = tokens[0::3]
    # three tokens per record, proved on the lines: a flat token stream
    # cannot tell "V a" + "E V b c0" from two well-formed records
    if not (set(map(len, map(str.split, lines))) <= {0, 3} and set(kinds) <= {"V", "E"}):
        raise _graph_error(text)
    return "".join(kinds).encode(), tokens[1::3], tokens[2::3]


# record kinds V/E to the bytes 1/0 and 0/1: the selectors of ``compress``
_IS_V = bytes.maketrans(b"VE", b"\1\0")
_IS_E = bytes.maketrans(b"VE", b"\0\1")


def _graph_error(text: str) -> ParseError:
    """The first error of a graph file that has one, reading one record at a
    time: a malformed record or duplicate vertex anywhere comes before an
    undeclared edge endpoint, the first of which is named."""
    declared: set[str] = set()
    edges: list[tuple[int, list[str]]] = []
    for lineno, tokens in _records(text):
        kind = tokens[0]
        if kind == "E":
            if len(tokens) != 3:
                return ParseError("E record needs <from-id> <to-id>", lineno)
            edges.append((lineno, tokens[1:]))
        elif kind == "V":
            if len(tokens) != 3:
                return ParseError("V record needs <vertex-id> <color-label>", lineno)
            if tokens[1] in declared:
                return ParseError(f"duplicate vertex {tokens[1]!r}", lineno)
            declared.add(tokens[1])
        else:
            return ParseError(f"unknown record type {kind!r}", lineno)
    for lineno, ends in edges:
        for end in ends:
            if end not in declared:
                return ParseError(f"edge endpoint {end!r} is not a declared vertex", lineno)
    raise AssertionError("the graph file has no error")


# ---------------------------------------------------------------------------
# solution files


def solution_cycles(g: ColoredDigraph, s: CycleSet) -> tuple[tuple[str, ...], ...]:
    """The canonical cycles of ``s`` (rotated and sorted) as vertex-name tuples."""
    names = g.vertex_names
    return tuple([tuple([names[v] for v in c]) for c in canonical_cycle_vertices(g, s)])


def serialize_cycles(cycles: tuple[tuple[str, ...], ...]) -> str:
    """Solution text form of vertex-name cycles, in order; ``parse_cycles``
    reads them back."""
    return "".join("C " + " ".join(cycle) + "\n" for cycle in cycles)


def serialize_solution(g: ColoredDigraph, s: CycleSet) -> str:
    """Canonical solution text form; ``parse_cycles`` reads its cycles back."""
    return serialize_cycles(solution_cycles(g, s))


def _cycle_records(text: str):
    """(line_number, vertex names) of each ``C v1 v2 ... vk`` record."""
    for lineno, tokens in _records(text):
        if tokens[0] != "C":
            raise ParseError(f"unknown record type {tokens[0]!r}", lineno)
        if len(tokens) < 2:
            raise ParseError("C record needs at least one vertex", lineno)
        yield lineno, tuple(tokens[1:])


def parse_cycles(text: str) -> tuple[tuple[str, ...], ...]:
    """The ``C`` records of a solution file as vertex-name tuples, in file
    order, without a graph to check them against."""
    return tuple(cycle for _, cycle in _cycle_records(text))


def parse_solution(text: str, g: ColoredDigraph) -> CycleSet:
    """Parse ``C v1 v2 ... vk`` records against a graph and its vertex names.

    Unknown vertex names and missing edges are parse errors; validity of the
    resulting set (disjointness etc.) is the caller's concern.  All records
    are looked up at once; only when that fails does a record-at-a-time
    walk find the first error in file order.
    """
    index = {name: v for v, name in enumerate(g.vertex_names)}
    try:
        return cycle_set_from_vertices(
            g, [[index[token] for token in cycle] for _, cycle in _cycle_records(text)])
    except (ParseError, KeyError, NonexistentEdge):
        pass
    for lineno, cycle in _cycle_records(text):
        unknown = [token for token in cycle if token not in index]
        if unknown:
            raise ParseError(f"unknown vertex {unknown[0]!r}", lineno)
        try:
            cycle_set_from_vertices(g, [[index[token] for token in cycle]])
        except NonexistentEdge as exc:
            raise ParseError(str(exc), lineno) from exc
    raise AssertionError("the solution file has no error")


# ---------------------------------------------------------------------------
# want-lists


def parse_wantlist(text: str) -> ColoredDigraph:
    """Parse ``<agent> <item> : <item>*`` lines into a colored digraph.

    One vertex per item, named by the item and colored by its agent (color
    labels are the agent names); one edge item -> w per entry of its wants
    list, duplicates kept as parallel edges.  Wanted items may be declared
    on any line of the file.
    """
    index: dict[str, int] = {}
    colors: list[int] = []
    agent_ids: dict[str, int] = {}
    item_lines: list[int] = []
    want_counts: list[int] = []
    wanted: list[str] = []
    for lineno, tokens in _records(text):
        if len(tokens) < 3 or tokens[2] != ":":
            raise ParseError("expected '<agent> <item> : <item>*'", lineno)
        item = tokens[1]
        if item in index:
            raise DuplicateItem(f"item {item!r} already declared", lineno)
        index[item] = len(index)
        colors.append(agent_ids.setdefault(tokens[0], len(agent_ids)))
        item_lines.append(lineno)
        want_counts.append(len(tokens) - 3)
        wanted += tokens[3:]

    names = list(index)
    tails = np.repeat(np.arange(len(names)), want_counts)
    try:
        heads = _vertex_ids(wanted, index, len(wanted))
    except KeyError:
        i, want = next((i, want) for i, want in enumerate(wanted) if want not in index)
        u = int(tails[i])
        raise UnknownWantedItem(f"{names[u]!r} wants undeclared item {want!r}",
                                item_lines[u]) from None
    return build_graph(colors, np.stack([tails, heads], axis=1), list(agent_ids), names)


def serialize_wantlist(g: ColoredDigraph) -> str:
    """Want-list text form; items are the graph's vertex names and agents
    its color labels."""
    names, labels = g.vertex_names, g.color_labels
    wants: list[list[str]] = [[] for _ in names]
    for u, v in g.edges:
        wants[u].append(names[v])
    return "".join(
        " ".join([f"{labels[c]} {item} :", *want]) + "\n"
        for item, c, want in zip(names, g.vertex_colors.tolist(), wants)
    )


# ---------------------------------------------------------------------------
# DIMACS CNF


def parse_dimacs(text: str) -> CnfInstance:
    """Parse standard DIMACS CNF (``p cnf <vars> <clauses>`` header,
    zero-terminated clauses, ``c`` comment lines).  A line whose first token
    is ``%`` ends the formula, as in the SATLIB benchmark files; the rest of
    the text is ignored."""
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []

    for lineno, tokens in _records(text):
        if tokens[0] == "c":
            continue
        if tokens[0] == "%":
            break
        if tokens[0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate 'p cnf' header", lineno)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError("expected 'p cnf <vars> <clauses>'", lineno)
            num_vars = _parse_int(tokens[2], lineno, "non-integer header counts")
            num_clauses = _parse_int(tokens[3], lineno, "non-integer header counts")
            if num_vars < 0 or num_clauses < 0:
                raise ParseError("negative header counts", lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for token in tokens:
            lit = _parse_int(token, lineno, "not a literal: {!r}")
            if lit == 0:
                if not current:
                    raise EmptyClause(f"line {lineno}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise LiteralOutOfRange(
                        f"line {lineno}: literal {lit} exceeds {num_vars} variables"
                    )
                current.append(lit)

    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        raise ParseError("last clause is not zero-terminated")
    if len(clauses) != num_clauses:
        raise ParseError(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfInstance(num_vars, tuple(clauses))


# ---------------------------------------------------------------------------
# random instances


def gen_random(
    num_vertices: int, num_colors: int, edge_prob: float, seed: int
) -> ColoredDigraph:
    """Seeded random market: every color gets at least one vertex (the first
    ``num_colors`` vertices carry colors 0..K-1, the rest draw uniformly),
    and each ordered pair (u, v), u != v, gets an edge independently with
    probability ``edge_prob``.  Deterministic given identical parameters."""
    if num_vertices < 0 or num_colors < 0 or num_colors > num_vertices:
        raise BadParameters(f"need 0 <= colors <= vertices, got {num_colors}/{num_vertices}")
    if num_vertices > 0 and num_colors == 0:
        raise BadParameters("vertices need colors")
    if not 0.0 <= edge_prob <= 1.0:
        raise BadParameters(f"edge probability {edge_prob} outside [0, 1]")
    rng = random.Random(seed)
    colors = [v if v < num_colors else rng.randrange(num_colors) for v in range(num_vertices)]
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v and rng.random() < edge_prob
    ]
    return build_graph(colors, edges)


# ---------------------------------------------------------------------------
# gadget map files (reduction sidecar)


@dataclass(frozen=True, eq=True)
class GadgetMap:
    """Parsed reduction sidecar: enough to pull a solution file back to an
    assignment and score it, without reloading the gadget graph."""

    num_vars: int
    true_loops: dict[int, tuple[str, ...]]
    false_loops: dict[int, tuple[str, ...]]
    clause_color_labels: dict[int, str]
    balance_color_labels: tuple[str, ...]
    clauses: tuple[tuple[int, ...], ...] = field(default=())
    balance_cycle: tuple[str, ...] = ()

    def cnf(self) -> CnfInstance:
        return CnfInstance(self.num_vars, self.clauses)


def serialize_gadget_map(gm: GadgetMap) -> str:
    """Sidecar map text form; ``parse_gadget_map`` gives ``gm`` back.

    ``VAR i TRUE|FALSE <vertices>`` lists each loop in cycle order;
    ``CLAUSECOLOR j <label>`` and ``BALANCECOLOR <labels>`` name the special
    colors; ``BALANCECYCLE <vertices>`` lists the ``2pc`` twin cycle, the one
    cycle of a gadget that is no loop; ``CLAUSE j <literals>`` repeats the
    source clauses so the pullback can count satisfied clauses.
    """
    lines = []
    for i in range(1, gm.num_vars + 1):
        for tag, loop in (("TRUE", gm.true_loops[i]), ("FALSE", gm.false_loops[i])):
            lines.append(f"VAR {i} {tag} " + " ".join(loop))
    for j, label in sorted(gm.clause_color_labels.items()):
        lines.append(f"CLAUSECOLOR {j} {label}")
    if gm.balance_color_labels:
        lines.append("BALANCECOLOR " + " ".join(gm.balance_color_labels))
    if gm.balance_cycle:
        lines.append("BALANCECYCLE " + " ".join(gm.balance_cycle))
    for j, clause in enumerate(gm.clauses, start=1):
        lines.append(f"CLAUSE {j} " + " ".join(str(lit) for lit in clause))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_gadget_map(text: str) -> GadgetMap:
    """Parse the sidecar map text form; a repeated record is a parse error."""
    true_loops: dict[int, tuple[str, ...]] = {}
    false_loops: dict[int, tuple[str, ...]] = {}
    clause_color_labels: dict[int, str] = {}
    balance_color_labels: tuple[str, ...] = ()
    balance_cycle: tuple[str, ...] = ()
    clauses: dict[int, tuple[int, ...]] = {}
    seen: set[str] = set()

    def once(record: str, lineno: int) -> None:
        if record in seen:
            raise ParseError(f"repeated {record} record", lineno)
        seen.add(record)

    for lineno, tokens in _records(text):
        kind = tokens[0]
        if kind == "VAR":
            if len(tokens) < 4 or tokens[2] not in ("TRUE", "FALSE"):
                raise ParseError("expected 'VAR <i> TRUE|FALSE <vertices>'", lineno)
            var = _parse_int(tokens[1], lineno)
            target = true_loops if tokens[2] == "TRUE" else false_loops
            if var in target:
                raise ParseError(f"duplicate {tokens[2]} loop for variable {var}", lineno)
            target[var] = tuple(tokens[3:])
        elif kind == "CLAUSECOLOR":
            if len(tokens) != 3:
                raise ParseError("expected 'CLAUSECOLOR <j> <label>'", lineno)
            j = _parse_int(tokens[1], lineno)
            once(f"CLAUSECOLOR {j}", lineno)
            clause_color_labels[j] = tokens[2]
        elif kind == "BALANCECOLOR":
            once(kind, lineno)
            balance_color_labels = tuple(tokens[1:])
        elif kind == "BALANCECYCLE":
            if len(tokens) < 2:
                raise ParseError("expected 'BALANCECYCLE <vertices>'", lineno)
            once(kind, lineno)
            balance_cycle = tuple(tokens[1:])
        elif kind == "CLAUSE":
            if len(tokens) < 3:
                raise ParseError("expected 'CLAUSE <j> <literals>'", lineno)
            j = _parse_int(tokens[1], lineno)
            once(f"CLAUSE {j}", lineno)
            clauses[j] = tuple(_parse_int(t, lineno) for t in tokens[2:])
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno)

    num_vars = len(true_loops)
    if set(true_loops) != set(false_loops) or not all(1 <= i <= num_vars for i in true_loops):
        raise ParseError("incomplete VAR loop records")
    ordered_clauses = tuple(clauses[j] for j in sorted(clauses))
    if set(clauses) != set(range(1, len(clauses) + 1)):
        raise ParseError("non-contiguous CLAUSE records")
    return GadgetMap(
        num_vars=num_vars,
        true_loops=true_loops,
        false_loops=false_loops,
        clause_color_labels=clause_color_labels,
        balance_color_labels=balance_color_labels,
        clauses=ordered_clauses,
        balance_cycle=balance_cycle,
    )


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_int(token: str, lineno: int, error: str = "expected an integer, got {!r}") -> int:
    """The integer a token spells as an optional sign and ASCII digits, or a
    ParseError with ``error`` formatted with the token; ``int`` alone would
    also read ``1_0`` and non-ASCII digits."""
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int converts
            pass
    raise ParseError(error.format(token), lineno)


# ---------------------------------------------------------------------------
# run reports


@dataclass(frozen=True)
class RunReport:
    """Summary of one clearing run; metrics always match a re-validation of
    the emitted solution.  ``color_count`` is also the number of agents trading."""

    objective: str
    method: str
    vertex_count: int
    color_count: int
    total_colors: int
    nodes: int
    seconds: float
    guarantee: str = ""
    cycles: tuple[tuple[str, ...], ...] = ()


def serialize_report(report: RunReport) -> str:
    lines = [
        f"objective {report.objective}",
        f"method {report.method}",
        f"vertices {report.vertex_count}",
        f"colors {report.color_count}",
        f"total-colors {report.total_colors}",
        f"nodes {report.nodes}",
        f"seconds {report.seconds!r}",
    ]
    if report.guarantee:
        lines.append(f"guarantee {report.guarantee}")
    for cycle in report.cycles:
        lines.append("C " + " ".join(cycle))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> RunReport:
    """Unknown keys, like the ``traded-agents`` line of older reports, are ignored."""
    fields: dict[str, str] = {}
    cycles: list[tuple[str, ...]] = []
    for lineno, tokens in _records(text):
        if tokens[0] == "C":
            cycles.append(tuple(tokens[1:]))
            continue
        if len(tokens) != 2:
            raise ParseError("expected '<key> <value>'", lineno)
        fields[tokens[0]] = tokens[1]
    try:
        return RunReport(
            objective=fields["objective"],
            method=fields["method"],
            vertex_count=int(fields["vertices"]),
            color_count=int(fields["colors"]),
            total_colors=int(fields["total-colors"]),
            nodes=int(fields["nodes"]),
            seconds=float(fields["seconds"]),
            guarantee=fields.get("guarantee", ""),
            cycles=tuple(cycles),
        )
    except KeyError as exc:
        raise ParseError(f"missing report field {exc.args[0]!r}") from None
