"""Text formats: round-trips, error reporting, generator determinism."""

from __future__ import annotations

import math
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barterclear as bc
from barterclear import formats
from conftest import CNF_A, CNF_B, CNF_C, small_graphs


def test_graph_round_trip(g_pair, g_conflict, g_tie):
    for g in (g_pair, g_conflict, g_tie):
        parsed = bc.parse_graph(bc.serialize_graph(g))
        assert parsed == g
        assert parsed.vertex_names == tuple(str(v) for v in range(g.vertex_count))


def test_graph_round_trip_custom_names(g_pair):
    g = bc.build_graph(g_pair.vertex_colors, g_pair.edges, g_pair.color_labels, ["a", "b"])
    text = bc.serialize_graph(g)
    assert text == "V a red\nV b blue\nE a b\nE b a\n"
    parsed = bc.parse_graph(text)
    assert parsed == g
    assert parsed.vertex_names == ("a", "b")


def test_graph_parse_comments_and_blanks():
    text = "# a market\n\nV a red  # alice's item\nV b blue\nE a b\nE b a\n"
    g = bc.parse_graph(text)
    assert g.vertex_names == ("a", "b")
    assert g.edges == ((0, 1), (1, 0))
    assert g.color_labels == ("red", "blue")


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(bc.ParseError, match="line 2.*duplicate"):
        bc.parse_graph("V a red\nV a blue\n")
    with pytest.raises(bc.ParseError, match="line 1.*declared vertex"):
        bc.parse_graph("E a b\n")
    with pytest.raises(bc.ParseError, match="unknown record"):
        bc.parse_graph("X a b\n")
    for text, message in (
        ("V a\n", "line 1: V record needs <vertex-id> <color-label>"),
        ("V a red\nE a\n", "line 2: E record needs <from-id> <to-id>"),
        ("V a red\nE a b\nE c a\n", "line 2: edge endpoint 'b' is not a declared vertex"),
        ("E a b\nX\n", "line 2: unknown record type 'X'"),
        # 2 and 4 tokens on the lines, a well-formed 3 + 3 in the flat stream
        ("V a\nE V b c0\n", "line 1: V record needs <vertex-id> <color-label>"),
    ):
        with pytest.raises(bc.ParseError, match=f"^{message}$"):
            bc.parse_graph(text)


def reference_parse_graph(text):
    """The graph file read one record at a time, written apart from
    parse_graph and kept as the reference for its graphs and errors: lines
    as ``str.splitlines`` splits them, checks in file order, and endpoints
    checked only after the last record."""
    index, colors, label_id, ends, edge_lines = {}, [], {}, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "E":
            if len(tokens) != 3:
                raise bc.ParseError("E record needs <from-id> <to-id>", lineno)
            ends += tokens[1:]
            edge_lines.append(lineno)
        elif kind == "V":
            if len(tokens) != 3:
                raise bc.ParseError("V record needs <vertex-id> <color-label>", lineno)
            if tokens[1] in index:
                raise bc.ParseError(f"duplicate vertex {tokens[1]!r}", lineno)
            index[tokens[1]] = len(index)
            colors.append(label_id.setdefault(tokens[2], len(label_id)))
        else:
            raise bc.ParseError(f"unknown record type {kind!r}", lineno)
    for i, end in enumerate(ends):
        if end not in index:
            raise bc.ParseError(f"edge endpoint {end!r} is not a declared vertex", edge_lines[i // 2])
    edges = [(index[t], index[h]) for t, h in zip(ends[0::2], ends[1::2])]
    return bc.build_graph(colors, edges, list(label_id), list(index))


@st.composite
def graph_texts(draw):
    """Graph files of well-formed and malformed records: V and E records
    interleaved, vertices named V or E, 2- and 4-token records side by side,
    duplicate vertices, undeclared endpoints, blank and whitespace-only
    lines, tabs, and comments starting mid-line."""
    name = st.sampled_from(["a", "b", "c", "V", "E"])
    record = st.one_of(
        st.tuples(st.just("V"), name, st.sampled_from(["red", "c0", "V"])),
        st.tuples(st.just("E"), name, name),
        st.lists(st.sampled_from(["V", "E", "X", "a", "b", "c0"]), min_size=1, max_size=4),
    )
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t ", "# note", "  #"])))
            continue
        tokens = draw(record)
        seps = draw(st.lists(st.sampled_from([" ", "\t", "  "]), min_size=len(tokens),
                             max_size=len(tokens)))
        line = draw(st.sampled_from(["", " ", "\t"])) + "".join(map(str.__add__, tokens, seps))
        if draw(st.booleans()):
            line = line.rstrip()  # a comment may touch the last token
        lines.append(line + draw(st.sampled_from(["", "", "#", " # E a b", "#V"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except bc.ParseError as exc:
        return type(exc), str(exc), exc.line


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(graph_texts(),
                      st.text(st.sampled_from("VEab #\n\t\r\x0b\x1c\x85\xa0\u2028"), max_size=40)))
@example("V a red\nE V b c0\n")
@example("V a\nE V b c0\n")
@example("E a b\nV a red\nV V red\nE V a\n")
@example("E a ghost\nV a red\nV a blue\n")
@example("V a red\nE a ghost\nE a\n")
# the other separators str.splitlines honours, a CR-only file, and a last
# record with no line end
@example("V a r\x0bE a a")
@example("V a r\x1cV b r\x85E a b")
@example("V a r\u2028E a a\r")
@example("V a red\rV b red\rE a b\rE b a\r")
@example("V a red\nE a a")
def test_bulk_graph_parse_matches_a_record_at_a_time_reference(text):
    # blocks of 1 and 3 characters cut inside \r\n, comments and records
    expected = _parse_outcome(reference_parse_graph, text)
    for block in (1, 3, formats._BLOCK):
        with mock.patch.object(formats, "_BLOCK", block):
            assert _parse_outcome(bc.parse_graph, text) == expected


def market_text(items, wants, seed):
    """A seeded graph file of ``items`` items, each wanting ``wants``
    distinct others, owned by agents of one to five items."""
    rng = random.Random(seed)
    owners = []
    while len(owners) < items:
        owners += [f"a{len(owners)}"] * rng.randint(1, 5)
    lines = [f"V i{v} {owners[v]}" for v in range(items)]
    for u in range(items):
        lines += [f"E i{u} i{v + (v >= u)}" for v in rng.sample(range(items - 1), wants)]
    return "\n".join(lines) + "\n"


def test_a_crlf_graph_of_many_blocks_parses_as_its_lf_copy():
    text = market_text(2000, 5, seed=1)
    crlf = text.replace("\n", "\r\n")
    assert len(crlf) > 2 * formats._BLOCK
    assert bc.parse_graph(crlf) == bc.parse_graph(text)


def test_a_graph_parse_holds_the_graph_not_the_file():
    # endpoints are kept as vertex ids and lines one block at a time: a
    # parse that keeps every line and endpoint name peaks at 13.5x the text
    text = market_text(20_000, 5, seed=1)
    tracemalloc.start()
    try:
        bc.parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * len(text)


def test_graph_parse_forward_edge_reference_is_fine():
    g = bc.parse_graph("E a b\nV a red\nV b red\n")
    assert g.edges == ((0, 1),)


def test_empty_graph_round_trip():
    g = bc.build_graph([], [])
    assert bc.serialize_graph(g) == ""
    parsed = bc.parse_graph("")
    assert parsed == g and parsed.vertex_names == ()


def test_solution_round_trip(g_conflict):
    s = bc.solve_max_size(g_conflict)
    text = bc.serialize_solution(g_conflict, s)
    assert text == "C 0 1 2\n"
    assert bc.parse_solution(text, g_conflict) == s


def test_solution_round_trip_named(g_pair):
    g = bc.build_graph(g_pair.vertex_colors, g_pair.edges, g_pair.color_labels, ["a", "b"])
    s = bc.solve_max_size(g)
    text = bc.serialize_solution(g, s)
    assert text == "C a b\n"
    assert bc.parse_solution(text, g) == s


def test_solution_serialization_canonicalizes(g_conflict):
    rotated = bc.CycleSet((bc.Cycle((1, 2, 0)),))  # b->c->a->b
    assert bc.serialize_solution(g_conflict, rotated) == "C 0 1 2\n"


def test_solution_parse_errors(g_pair):
    with pytest.raises(bc.ParseError, match="unknown vertex"):
        bc.parse_solution("C 0 7\n", g_pair)
    with pytest.raises(bc.ParseError, match="no edge"):
        bc.parse_solution("C 0\n", g_pair)  # no self-loop on vertex 0
    with pytest.raises(bc.ParseError, match="at least one vertex"):
        bc.parse_solution("C\n", g_pair)


def test_parse_cycles_reads_names_without_a_graph():
    assert bc.parse_cycles("# sol\nC a b\n\nC 7  # loop\n") == (("a", "b"), ("7",))
    assert bc.parse_cycles("") == ()
    with pytest.raises(bc.ParseError, match="line 2.*unknown record"):
        bc.parse_cycles("C a\nX b\n")
    with pytest.raises(bc.ParseError, match="line 1.*at least one vertex"):
        bc.parse_cycles("C\n")


def test_solution_parse_errors_carry_line_numbers(g_pair):
    with pytest.raises(bc.ParseError, match="line 3.*unknown vertex"):
        bc.parse_solution("C 0 1\n# comment\nC 7\n", g_pair)
    with pytest.raises(bc.ParseError, match="line 2.*no edge"):
        bc.parse_solution("\nC 1\n", g_pair)


def test_solution_parse_errors_name_the_first_faulty_record(g_conflict):
    # the records are looked up together; the error still names its line
    with pytest.raises(bc.ParseError, match="^line 3: no edge 1 -> 0$"):
        bc.parse_solution("C 0 3\n\nC 1 0\n", g_conflict)
    # a missing edge comes before a malformed or unknown record further on
    with pytest.raises(bc.ParseError, match="^line 1: no edge 0 -> 0$"):
        bc.parse_solution("C 0\nC 9\nX\n", g_conflict)
    with pytest.raises(bc.ParseError, match="^line 2: unknown vertex '9'$"):
        bc.parse_solution("C 3 0\nC 9 8 0\nC 0 0\n", g_conflict)


def test_a_solution_file_is_looked_up_once(monkeypatch):
    # 20 000 two-cycles, then the same file with a self-loop the graph lacks
    # as its last record: either way one walk and one edge-id lookup
    g = bc.build_graph([0] * 40_000, [(u ^ d, u ^ d ^ 1) for u in range(0, 40_000, 2)
                                      for d in (0, 1)])
    records = [f"C {u} {u + 1}\n" for u in range(0, 40_000, 2)]
    lookups = []
    lowest_edge_ids = bc.graph._lowest_edge_ids
    monkeypatch.setattr(bc.graph, "_lowest_edge_ids",
                        lambda *args: lookups.append(args) or lowest_edge_ids(*args))
    assert len(bc.parse_solution("".join(records), g)) == 20_000
    assert len(lookups) == 1
    lookups.clear()
    with pytest.raises(bc.ParseError, match="^line 20000: no edge 39998 -> 39998$"):
        bc.parse_solution("".join(records[:-1]) + "C 39998\n", g)
    assert len(lookups) == 1


def test_wantlist_pair_up_to_relabeling(g_pair):
    g = bc.parse_wantlist("alice a1 : b1\nbob b1 : a1\n")
    assert g.vertex_names == ("a1", "b1")
    assert g.vertex_colors.tolist() == g_pair.vertex_colors.tolist()
    assert g.edges == g_pair.edges
    assert g.color_labels == ("alice", "bob")


def test_wantlist_empty_wants():
    g = bc.parse_wantlist("alice a1 :\n")
    assert g.vertex_count == 1 and g.edge_count == 0


def test_wantlist_self_loop_kept_then_droppable():
    g = bc.parse_wantlist("alice a1 : a1\n")
    assert g.edges == ((0, 0),)
    dropped = bc.without_self_loops(g)
    assert dropped.edges == ()
    assert (dropped.vertex_names, dropped.color_labels) == (("a1",), ("alice",))


def test_wantlist_forward_reference_allowed():
    g = bc.parse_wantlist("alice a1 : b1\nbob b1 :\n")
    assert g.edges == ((0, 1),)


def test_wantlist_errors():
    with pytest.raises(bc.DuplicateItem, match="line 2"):
        bc.parse_wantlist("alice a1 :\nbob a1 :\n")
    with pytest.raises(bc.UnknownWantedItem, match="line 1"):
        bc.parse_wantlist("alice a1 : ghost\n")
    with pytest.raises(bc.ParseError, match="line 1"):
        bc.parse_wantlist("alice a1\n")
    with pytest.raises(bc.UnknownWantedItem, match="^line 2: 'b1' wants undeclared item 'ghost'$"):
        bc.parse_wantlist("alice a1 : b1\nbob b1 : a1 ghost\nbob b2 : phantom\n")


def test_wantlist_round_trip():
    text = "alice a1 : b1 b2\nbob b1 : a1\nbob b2 :\n"
    g = bc.parse_wantlist(text)
    assert bc.parse_wantlist(bc.serialize_wantlist(g)) == g


@settings(max_examples=40, deadline=None)
@given(g=small_graphs())
def test_the_writers_leave_no_edge_tuple_on_the_graph(g):
    # both writers read the endpoint arrays, not the cached g.edges
    for write in (bc.serialize_graph, bc.serialize_wantlist):
        fresh = replace(g)
        write(fresh)
        assert "edges" not in vars(fresh)


def test_dimacs_cnf_a():
    assert bc.parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n") == CNF_A


def test_dimacs_cnf_b():
    assert bc.parse_dimacs("p cnf 1 2\n1 0\n-1 0\n") == CNF_B


def test_dimacs_comments_and_multiline_clauses():
    cnf = bc.parse_dimacs("c header\np cnf 3 2\n1 2\n3 0 -1 0\n")
    assert cnf.clauses == ((1, 2, 3), (-1,))


def test_dimacs_empty_clause():
    with pytest.raises(bc.EmptyClause):
        bc.parse_dimacs("p cnf 1 1\n0\n")


def test_dimacs_literal_out_of_range():
    with pytest.raises(bc.LiteralOutOfRange):
        bc.parse_dimacs("p cnf 1 1\n2 0\n")


def test_dimacs_structural_errors():
    with pytest.raises(bc.ParseError, match="header"):
        bc.parse_dimacs("1 0\n")
    with pytest.raises(bc.ParseError, match="zero-terminated"):
        bc.parse_dimacs("p cnf 1 1\n1\n")
    with pytest.raises(bc.ParseError, match="declares"):
        bc.parse_dimacs("p cnf 1 2\n1 0\n")


def test_dimacs_and_gadget_map_integers_are_a_sign_and_ascii_digits():
    assert bc.parse_dimacs("p cnf +2 2\n+1 -2 0\n2 -0\n") == CNF_A
    for text, message in (
        ("p cnf 12 1\n1_0 -2 0\n", "line 2: not a literal: '1_0'"),
        ("p cnf 2 1\n\u0661 0\n", "line 2: not a literal: '\u0661'"),
        ("p cnf 1_0 1\n1 0\n", "line 1: non-integer header counts"),
        ("p cnf 1 \uff11\n1 0\n", "line 1: non-integer header counts"),
    ):
        with pytest.raises(bc.ParseError) as info:
            bc.parse_dimacs(text)
        assert str(info.value) == message
    for text, message in (
        ("VAR 1_0 TRUE a\n", "line 1: expected an integer, got '1_0'"),
        ("CLAUSE 1 \u0661\n", "line 1: expected an integer, got '\u0661'"),
        ("CLAUSE 1 1\nCLAUSE 0_1 2\n", "line 2: expected an integer, got '0_1'"),
    ):
        with pytest.raises(bc.ParseError) as info:
            bc.parse_gadget_map(text)
        assert str(info.value) == message


def test_dimacs_satlib_percent_trailer_ends_the_formula():
    # SATLIB uf* files end in a '%' line followed by a lone '0'
    assert bc.parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n%\n0\n\n") == CNF_A
    assert bc.parse_dimacs("p cnf 1 2\n1 0\n-1 0\n% anything\nnot dimacs 0\n") == CNF_B


def test_gen_random_trivial_cases():
    assert bc.gen_random(0, 0, 0.5, 1) == bc.build_graph([], [])
    g = bc.gen_random(5, 5, 0.0, 7)
    assert g.edge_count == 0
    assert bc.validate_cycle_set(g, bc.solve_max_size(g)).vertex_count == 0


def test_gen_random_complete_digraph_trades_everything():
    g = bc.gen_random(5, 2, 1.0, 3)
    assert g.edge_count == 20  # complete digraph minus self-loops
    assert bc.validate_cycle_set(g, bc.solve_max_size(g)).vertex_count == 5


def test_gen_random_every_color_used():
    g = bc.gen_random(9, 5, 0.3, 123)
    assert set(g.vertex_colors) == set(range(5))


def test_gen_random_deterministic_bytes():
    a = bc.serialize_graph(bc.gen_random(8, 3, 0.4, 42))
    b = bc.serialize_graph(bc.gen_random(8, 3, 0.4, 42))
    assert a == b
    c = bc.serialize_graph(bc.gen_random(8, 3, 0.4, 43))
    assert a != c


def test_gen_random_bad_parameters():
    with pytest.raises(bc.BadParameters):
        bc.gen_random(3, 4, 0.5, 1)
    with pytest.raises(bc.BadParameters):
        bc.gen_random(3, 0, 0.5, 1)
    with pytest.raises(bc.BadParameters):
        bc.gen_random(3, 2, 1.5, 1)


def test_gadget_map_round_trip():
    art = bc.build_sat_graph(CNF_A, "balanced")
    gm = bc.parse_gadget_map(bc.serialize_gadget_map(bc.gadget_map(art)))
    assert gm.num_vars == 2
    assert gm.clauses == CNF_A.clauses
    assert gm.cnf() == CNF_A
    g = art.graph
    for i in (1, 2):
        expected = tuple(str(v) for v in bc.cycle_vertices(g, art.true_loops[i - 1]))
        assert gm.true_loops[i] == expected
    assert "COLOR" not in bc.serialize_gadget_map(gm)  # colours stay the graph's labels


def test_gadget_map_serialize_parse_round_trip():
    arts = [bc.build_sat_graph(CNF_A), bc.build_sat_graph(CNF_B, "balanced"),
            bc.build_sat_graph(CNF_C, "2pc"), bc.build_sat_graph(bc.CnfInstance(0, ()))]
    for art in arts:
        gm = bc.gadget_map(art)
        assert bc.parse_gadget_map(bc.serialize_gadget_map(gm)) == gm
        assert gm.cnf() == art.cnf


def test_gadget_map_balance_cycle_record():
    art = bc.build_sat_graph(CNF_C, "2pc")
    gm = bc.gadget_map(art)
    assert gm.balance_cycle == tuple(str(v) for v in bc.cycle_vertices(art.graph, art.balance_cycle))
    assert "BALANCECYCLE " + " ".join(gm.balance_cycle) in bc.serialize_gadget_map(gm)
    assert bc.gadget_map(bc.build_sat_graph(CNF_C)).balance_cycle == ()
    with pytest.raises(bc.ParseError, match="BALANCECYCLE"):
        bc.parse_gadget_map("VAR 1 TRUE 0\nVAR 1 FALSE 0\nBALANCECYCLE\n")


def test_gadget_map_rejects_repeated_records():
    text = bc.serialize_gadget_map(bc.gadget_map(bc.build_sat_graph(CNF_C, "2pc")))
    assert "BALANCECYCLE " in text
    last = text.count("\n")
    # older maps' colour records are skipped, repeated or not
    older = "CLAUSECOLOR 2 clause2\nCLAUSECOLOR 2 clause1\nBALANCECOLOR\nBALANCECOLOR\n"
    assert bc.parse_gadget_map(text + older) == bc.parse_gadget_map(text)
    for record, message in (("CLAUSE 01 1", "repeated CLAUSE 1 record"),
                            ("BALANCECYCLE 4 5", "repeated BALANCECYCLE record"),
                            ("VAR 2 FALSE 1", "duplicate FALSE loop for variable 2")):
        with pytest.raises(bc.ParseError, match=f"^line {last + 1}: {message}$"):
            bc.parse_gadget_map(text + record + "\n")


def test_gadget_map_rejects_incomplete_variables():
    with pytest.raises(bc.ParseError, match="incomplete VAR"):
        bc.parse_gadget_map("VAR 2 TRUE 1\nVAR 2 FALSE 1\n")
    with pytest.raises(bc.ParseError, match="incomplete VAR"):
        bc.parse_gadget_map("VAR 0 TRUE 1\nVAR 0 FALSE 1\n")
    with pytest.raises(bc.ParseError, match="incomplete VAR"):
        bc.parse_gadget_map("VAR 1 TRUE 1\nVAR 1 FALSE 1\nVAR 3 TRUE 2\nVAR 3 FALSE 2\n")
    gm = bc.parse_gadget_map("VAR 2 TRUE 1\nVAR 2 FALSE 1\nVAR 1 TRUE 0\nVAR 1 FALSE 0\n")
    assert gm.num_vars == 2


@settings(max_examples=60, deadline=None)
@given(g=small_graphs())
def test_generated_style_graphs_round_trip(g):
    # graphs whose color ids follow first vertex appearance round-trip exactly
    parsed = bc.parse_graph(bc.serialize_graph(g))
    reparsed = bc.parse_graph(bc.serialize_graph(parsed))
    assert reparsed == parsed
    assert parsed.edges == g.edges
    assert parsed.vertex_count == g.vertex_count


def _carriable(name: str) -> bool:
    return name != "" and "#" not in name and not any(ch.isspace() for ch in name)


@st.composite
def name_lists(draw):
    """Six distinct tokens, at times with one replaced by a name that no
    text format can carry."""
    names = draw(st.lists(st.text(st.sampled_from("ab:éVE"), min_size=1, max_size=3),
                          min_size=6, max_size=6, unique=True))
    if draw(st.booleans()):
        names[draw(st.integers(0, 5))] = draw(
            st.sampled_from(["", " ", "#", "a#b", "a b", "\t", "b\n", "\x1c", "é\u2028"]))
    return names


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), names=name_lists(), labels=name_lists())
def test_graphs_build_graph_accepts_read_back_equal(g, names, labels):
    # both formats number colors by first appearance, and a want-list
    # groups edges by tail, so the drawn graph is put in that order first
    first = list(dict.fromkeys(g.vertex_colors.tolist()))
    colors = [first.index(c) for c in g.vertex_colors.tolist()]
    edges = sorted(g.edges, key=lambda e: e[0])
    names, labels = names[:g.vertex_count], labels[:g.color_count]
    if not all(map(_carriable, names + labels)):
        with pytest.raises(ValueError, match="^invalid (vertex name|color label): "):
            bc.build_graph(colors, edges, labels, names)
        return
    h = bc.build_graph(colors, edges, labels, names)
    assert bc.parse_graph(bc.serialize_graph(h)) == h
    assert bc.parse_wantlist(bc.serialize_wantlist(h)) == h


def test_parse_integer_takes_a_sign_and_ascii_digits_only():
    assert [bc.parse_integer(t) for t in ("0", "-12", "+7", "007")] == [0, -12, 7, 7]
    for token in ("1_0", "١", " 1", "1.0", "", "-", "0x1f", "9" * 5000):
        with pytest.raises(ValueError):
            bc.parse_integer(token)


def test_parse_float_takes_ascii_without_underscores_or_whitespace():
    assert [bc.parse_float(t) for t in ("0.5", "-1", "+7", "1e3", ".5", "inf")] == [
        0.5, -1.0, 7.0, 1000.0, 0.5, float("inf")]
    assert math.isnan(bc.parse_float("nan"))
    for token in ("1_0", "١", "１.5", " 1", "1 ", "1\t", "", "x", "1.0.0"):
        with pytest.raises(ValueError):
            bc.parse_float(token)
