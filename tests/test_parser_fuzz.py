"""Fuzzing of the text parsers: on any input text, the only exceptions that
may escape a parser are ValueError subclasses (ParseError and the domain
errors), which the CLI reports as input errors with exit code 2."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import barterclear as bc

# whole records and record heads of each format, to be followed by a few
# more tokens: names and numbers of every format plus awkward ones
HEADS = [
    ["V a red", "V b blue", "V d red", "E a b", "E b a", "E d d", "V", "E a"],
    ["C a b", "C d", "C b a", "C"],
    ["alice a : b", "bob b : a d", "bob d :", "alice"],
    ["p cnf 2 2", "p cnf 3 1", "1 -2 0", "2 0", "-3 0", "c", "%", "p cnf"],
    ["VAR 1 TRUE 0 2", "VAR 1 FALSE 0", "VAR 2 TRUE 1", "VAR 2 FALSE 1 3", "CLAUSECOLOR 1",
     "BALANCECOLOR", "BALANCECYCLE 3 4", "BALANCECYCLE", "CLAUSE 1 1 -2", "CLAUSE 2 2",
     "VAR 1"],
    ["objective tex", "method exact", "vertices 2", "colors 1", "total-colors 2",
     "traded-agents 1", "nodes 5", "seconds 0.5", "guarantee 1/2", "C a b", "seconds"],
]
ARGS = st.sampled_from([
    "a", "b", "d", "red", "0", "1", "2", "-1", "-2", "-0", "+1", "99", "1e3", "0x1", "1_0",
    "nan", "inf", "#", ":", "%", "TRUE", "cnf", "é", "\x00", "\t",
])


def records(heads: list[str]) -> st.SearchStrategy[str]:
    extra = st.one_of(st.just(()), st.just(()), st.lists(ARGS, min_size=1, max_size=3))
    line = st.tuples(st.sampled_from(heads), extra)
    return st.lists(line.map(lambda t: " ".join((t[0], *t[1]))), max_size=8).map("\n".join)


TEXTS = st.one_of(st.sampled_from(HEADS).flatmap(records), st.text(max_size=60))

MARKET = "V a red\nV b red\nV c red\nV d blue\nE a b\nE b c\nE c a\nE a d\nE d a\n"
GRAPH = bc.parse_graph(MARKET)

PARSERS = {
    "parse_graph": bc.parse_graph,
    "parse_solution": lambda text: bc.parse_solution(text, GRAPH),
    "parse_cycles": bc.parse_cycles,
    "parse_wantlist": bc.parse_wantlist,
    "parse_dimacs": bc.parse_dimacs,
    "parse_gadget_map": lambda text: bc.parse_gadget_map(text).cnf(),
    "parse_report": bc.parse_report,
}


@settings(max_examples=200, deadline=None)
@given(text=TEXTS)
def test_parsers_raise_only_value_errors(text):
    for name, parse in PARSERS.items():
        try:
            parse(text)
        except ValueError:
            pass
        except Exception as exc:
            raise AssertionError(f"{name} raised {type(exc).__name__}") from exc

