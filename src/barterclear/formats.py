"""Text formats: graphs, solutions, want-lists, DIMACS CNF, gadget maps.

Graph files carry one record per line (`#` starts a comment, tokens are
whitespace-separated): ``V <vertex-id> <color-label>`` declares a vertex,
``E <from-id> <to-id>`` an edge; repeated E records make parallel edges.
Solution files carry ``C <v1> <v2> ... <vk>`` records meaning the cycle
v1 -> v2 -> ... -> vk -> v1; when parallel edges exist between consecutive
vertices the lowest edge id is taken.  Want-lists use the community format
``<agent> <item> : <item>*``.  Parsing a serialized canonical object gives
the object back exactly.  Cycle text has one writer, ``serialize_solution``.

Every parser reads one record at a time, from lines that ``_lines`` splits
one block of text at a time, so a parse holds the object it builds and
one block's lines, not the file's.  ``parse_graph`` keeps each endpoint
as the vertex id it names, so it peaks near four times the size of its
text.  Both graph parsers build the graph from the arrays they made,
without ``build_graph``'s checks: their parse already proves each of
them.  Names are unique, labels are unique and color ids dense (both come
from a first-appearance dict), every endpoint is declared, and every name
and label is one token with no whitespace and no ``#``, since tokens come
from ``str.split`` after comments are stripped.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .graph import (
    ColoredDigraph,
    CycleSet,
    build_graph,
    canonical_cycle_vertices,
    cycle_set_from_vertices,
    NonexistentEdge,
    _graph,
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


# characters of text split into lines at a time
_BLOCK = 1 << 16


def _lines(text: str) -> Iterator[str]:
    r"""The lines of ``text`` as ``text.splitlines()`` gives them, with
    comments stripped, split one block of about ``_BLOCK`` characters at a
    time, so that a parse holds one block's lines and not the file's.

    A block ends just after a ``\n``, where ``str.splitlines`` always ends a
    line, also when the ``\n`` closes a ``\r\n``; so the blocks' lines are
    the text's lines.  The lines come from per-block lists, which cost less
    per line than a generator that yields each one.
    """
    return chain.from_iterable(_line_blocks(text))


def _line_blocks(text: str) -> Iterator[list[str]]:
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
        block = text[start:end]
        lines = block.splitlines()
        if "#" in block:
            lines = [raw.split("#", 1)[0] for raw in lines]
        yield lines
        start = end


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
    lines += [f"E {names[u]} {names[v]}" for u, v in zip(g.tails.tolist(), g.heads.tolist())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph(text: str) -> ColoredDigraph:
    """Parse the graph text form, one record at a time.

    Vertex ids are assigned densely in declaration order and color ids in
    order of first label appearance, so serializing the result reproduces
    the input.  The first malformed record or duplicate vertex in file order
    is the error; only when there is none, the first undeclared endpoint.
    """
    index: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    colors: list[int] = []
    # endpoints are kept as the ids the index holds, not as their names; an
    # E record that names a vertex declared further on is patched at the end
    tails: list[int | None] = []
    heads: list[int | None] = []
    forward: list[tuple[int, int, tuple[str, str]]] = []
    get = index.get
    for lineno, line in enumerate(_lines(text), start=1):
        tokens = line.split()
        try:
            kind, first, second = tokens
        except ValueError:  # a blank line or a record of the wrong length
            kind = None
        if kind == "E":
            tail, head = get(first), get(second)
            if tail is None or head is None:
                forward.append((len(tails), lineno, (first, second)))
            tails.append(tail)
            heads.append(head)
        elif kind == "V" and first not in index:
            index[first] = len(index)
            colors.append(label_ids.setdefault(second, len(label_ids)))
        elif tokens:
            raise _record_error(tokens, lineno)
    for e, lineno, ends in forward:
        for end in ends:
            if end not in index:
                raise ParseError(f"edge endpoint {end!r} is not a declared vertex", lineno)
        tails[e], heads[e] = index[ends[0]], index[ends[1]]
    return _graph(np.array(colors, dtype=np.intp), np.array(tails, dtype=np.intp),
                  np.array(heads, dtype=np.intp), tuple(label_ids), tuple(index))


def _record_error(tokens: list[str], lineno: int) -> ParseError:
    """The error of a non-blank graph record that is neither a 3-token ``E``
    record nor a 3-token ``V`` record of a new vertex."""
    kind = tokens[0]
    if kind == "E":
        return ParseError("E record needs <from-id> <to-id>", lineno)
    if kind != "V":
        return ParseError(f"unknown record type {kind!r}", lineno)
    if len(tokens) != 3:
        return ParseError("V record needs <vertex-id> <color-label>", lineno)
    return ParseError(f"duplicate vertex {tokens[1]!r}", lineno)


# ---------------------------------------------------------------------------
# solution files


def serialize_solution(g: ColoredDigraph, s: CycleSet) -> str:
    """Canonical solution text form (cycles rotated to their smallest vertex,
    sorted by it), the one writer of cycle text; ``parse_cycles`` reads it back."""
    names = g.vertex_names
    return "".join(["C " + " ".join([names[v] for v in c]) + "\n"
                    for c in canonical_cycle_vertices(g, s)])


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
    return tuple([cycle for _, cycle in _cycle_records(text)])


def parse_solution(text: str, g: ColoredDigraph) -> CycleSet:
    """Parse ``C v1 v2 ... vk`` records against a graph and its vertex names.

    Unknown vertex names and missing edges are parse errors; validity of the
    resulting set (disjointness etc.) is the caller's concern.  One walk
    reads the records up to the first malformed one or unknown vertex, and
    one lookup finds a missing edge before it, the first error in file order.
    """
    index = {name: v for v, name in enumerate(g.vertex_names)}
    lines: list[int] = []
    cycles: list[list[int]] = []
    stop: ParseError | None = None
    try:
        for lineno, cycle in _cycle_records(text):
            lines.append(lineno)
            cycles.append([index[token] for token in cycle])
    except ParseError as exc:
        stop = exc
    except KeyError as exc:
        stop = ParseError(f"unknown vertex {exc.args[0]!r}", lines[-1])
    try:
        s = cycle_set_from_vertices(g, cycles)
    except NonexistentEdge as exc:
        raise ParseError(str(exc), lines[exc.cycle]) from exc
    if stop is not None:
        raise stop
    return s


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

    names = tuple(index)
    tails = np.repeat(np.arange(len(names), dtype=np.intp), want_counts)
    try:
        heads = _vertex_ids(wanted, index, len(wanted))
    except KeyError:
        i, want = next((i, want) for i, want in enumerate(wanted) if want not in index)
        u = int(tails[i])
        raise UnknownWantedItem(f"{names[u]!r} wants undeclared item {want!r}",
                                item_lines[u]) from None
    return _graph(np.array(colors, dtype=np.intp), tails, heads, tuple(agent_ids), names)


def serialize_wantlist(g: ColoredDigraph) -> str:
    """Want-list text form; items are the graph's vertex names and agents
    its color labels."""
    names, labels = g.vertex_names, g.color_labels
    wants: list[list[str]] = [[] for _ in names]
    for u, v in zip(g.tails.tolist(), g.heads.tolist()):
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
    assignment and score it, without reloading the gadget graph.  Colours
    are the graph's own labels and are not repeated here."""

    num_vars: int
    true_loops: dict[int, tuple[str, ...]]
    false_loops: dict[int, tuple[str, ...]]
    clauses: tuple[tuple[int, ...], ...] = ()
    balance_cycle: tuple[str, ...] = ()

    def cnf(self) -> CnfInstance:
        return CnfInstance(self.num_vars, self.clauses)


def serialize_gadget_map(gm: GadgetMap) -> str:
    """Sidecar map text form; ``parse_gadget_map`` gives ``gm`` back.

    ``VAR i TRUE|FALSE <vertices>`` lists each loop in cycle order;
    ``BALANCECYCLE <vertices>`` lists the ``2pc`` twin cycle, the one cycle
    of a gadget that is no loop; ``CLAUSE j <literals>`` repeats the source
    clauses so the pullback can count satisfied clauses.
    """
    lines = []
    for i in range(1, gm.num_vars + 1):
        for tag, loop in (("TRUE", gm.true_loops[i]), ("FALSE", gm.false_loops[i])):
            lines.append(f"VAR {i} {tag} " + " ".join(loop))
    if gm.balance_cycle:
        lines.append("BALANCECYCLE " + " ".join(gm.balance_cycle))
    for j, clause in enumerate(gm.clauses, start=1):
        lines.append(f"CLAUSE {j} " + " ".join(str(lit) for lit in clause))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_gadget_map(text: str) -> GadgetMap:
    """Parse the sidecar map text form; a repeated record is a parse error.
    The ``CLAUSECOLOR`` and ``BALANCECOLOR`` records of older maps, which
    restated the graph's colour labels, are skipped."""
    true_loops: dict[int, tuple[str, ...]] = {}
    false_loops: dict[int, tuple[str, ...]] = {}
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
        elif kind in ("CLAUSECOLOR", "BALANCECOLOR"):
            continue
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
            clauses[j] = tuple([_parse_int(t, lineno) for t in tokens[2:]])
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno)

    num_vars = len(true_loops)
    if set(true_loops) != set(false_loops) or not all(1 <= i <= num_vars for i in true_loops):
        raise ParseError("incomplete VAR loop records")
    ordered_clauses = tuple([clauses[j] for j in sorted(clauses)])
    if set(clauses) != set(range(1, len(clauses) + 1)):
        raise ParseError("non-contiguous CLAUSE records")
    return GadgetMap(
        num_vars=num_vars,
        true_loops=true_loops,
        false_loops=false_loops,
        clauses=ordered_clauses,
        balance_cycle=balance_cycle,
    )


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_int(token: str, lineno: int | None,
               error: str = "expected an integer, got {!r}") -> int:
    """The integer a token spells as an optional sign and ASCII digits, or a
    ParseError with ``error`` formatted with the token; ``int`` alone would
    also read ``1_0`` and non-ASCII digits."""
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int converts
            pass
    raise ParseError(error.format(token), lineno)


def parse_integer(token: str) -> int:
    """The text formats' integer rule for text outside a file, such as a
    command-line option: an optional sign and ASCII digits, or a ParseError
    (a ValueError) with no line number."""
    return _parse_int(token, None)


_NOT_IN_A_FLOAT = re.compile(r"[_\s]")


def parse_float(token: str) -> float:
    """The text formats' float rule for text outside a file, such as a
    command-line option: ASCII with no underscore or whitespace, ``inf`` and
    ``nan`` included, or a ParseError (a ValueError) with no line number;
    ``float`` alone would also read ``1_0``, `` 1`` and non-ASCII digits."""
    if token.isascii() and not _NOT_IN_A_FLOAT.search(token):
        try:
            return float(token)
        except ValueError:
            pass
    raise ParseError(f"expected a number, got {token!r}")
