"""Golden layout of the three gadgets: vertex ids, edge ids, labels and
map records, frozen so that a change to the builder or to the files that
`reduce` writes cannot move them unnoticed.  Texts are written with their records joined by " | "."""

from __future__ import annotations

import pytest

import barterclear as bc
from barterclear.cli import main
from conftest import CNF_A

CNFS = {
    "CNF_A": CNF_A,
    "PARALLEL": bc.CnfInstance(2, ((1,),)),  # x2's loops are parallel self-loops
    "EMPTY": bc.CnfInstance(0, ()),
}

# (graph text, map text, (TRUE loop edge ids, FALSE loop edge ids, balance cycle edge ids))
GOLDEN = {
    ('CNF_A', 'plain'): (
        (
            'V 0 var | V 1 var | V 2 clause1 | V 3 clause1 | V 4 clause2 | E 0 2 | '
            'E 2 0 | E 0 0 | E 1 4 | E 4 1 | E 1 3 | E 3 1'
        ),
        (
            'VAR 1 TRUE 0 2 | VAR 1 FALSE 0 | VAR 2 TRUE 1 4 | VAR 2 FALSE 1 3 | '
            'CLAUSE 1 1 -2 | CLAUSE 2 2'
        ),
        (((0, 1), (3, 4)), ((2,), (5, 6)), None),
    ),
    ('CNF_A', 'balanced'): (
        (
            'V 0 var | V 1 var | V 2 clause1 | V 3 clause1 | V 4 clause2 | '
            'V 5 balance | V 6 balance | V 7 balance | V 8 balance | V 9 balance | '
            'E 0 2 | E 2 5 | E 5 0 | E 0 6 | E 6 7 | E 7 0 | E 1 4 | E 4 8 | E 8 1 | '
            'E 1 3 | E 3 9 | E 9 1'
        ),
        (
            'VAR 1 TRUE 0 2 5 | VAR 1 FALSE 0 6 7 | VAR 2 TRUE 1 4 8 | '
            'VAR 2 FALSE 1 3 9 | CLAUSE 1 1 -2 | CLAUSE 2 2'
        ),
        (((0, 1, 2), (6, 7, 8)), ((3, 4, 5), (9, 10, 11)), None),
    ),
    ('CNF_A', '2pc'): (
        (
            'V 0 x1 | V 1 x2 | V 2 clause1 | V 3 clause1 | V 4 clause2 | '
            'V 5 balance1 | V 6 balance2 | V 7 balance3 | V 8 balance4 | '
            'V 9 balance5 | V 10 balance1 | V 11 balance2 | V 12 balance3 | '
            'V 13 balance4 | V 14 balance5 | E 0 2 | E 2 5 | E 5 0 | E 0 6 | E 6 7 | '
            'E 7 0 | E 1 4 | E 4 8 | E 8 1 | E 1 3 | E 3 9 | E 9 1 | E 10 11 | '
            'E 11 12 | E 12 13 | E 13 14 | E 14 10'
        ),
        (
            'VAR 1 TRUE 0 2 5 | VAR 1 FALSE 0 6 7 | VAR 2 TRUE 1 4 8 | '
            'VAR 2 FALSE 1 3 9 | BALANCECYCLE 10 11 12 13 14 | CLAUSE 1 1 -2 | '
            'CLAUSE 2 2'
        ),
        (((0, 1, 2), (6, 7, 8)), ((3, 4, 5), (9, 10, 11)), (12, 13, 14, 15, 16)),
    ),
    ('PARALLEL', 'plain'): (
        'V 0 var | V 1 var | V 2 clause1 | E 0 2 | E 2 0 | E 0 0 | E 1 1 | E 1 1',
        (
            'VAR 1 TRUE 0 2 | VAR 1 FALSE 0 | VAR 2 TRUE 1 | VAR 2 FALSE 1 | '
            'CLAUSE 1 1'
        ),
        (((0, 1), (3,)), ((2,), (4,)), None),
    ),
    ('PARALLEL', 'balanced'): (
        (
            'V 0 var | V 1 var | V 2 clause1 | V 3 balance | V 4 balance | '
            'V 5 balance | V 6 balance | V 7 balance | V 8 balance | V 9 balance | '
            'E 0 2 | E 2 3 | E 3 0 | E 0 4 | E 4 5 | E 5 0 | E 1 6 | E 6 7 | E 7 1 | '
            'E 1 8 | E 8 9 | E 9 1'
        ),
        (
            'VAR 1 TRUE 0 2 3 | VAR 1 FALSE 0 4 5 | VAR 2 TRUE 1 6 7 | '
            'VAR 2 FALSE 1 8 9 | CLAUSE 1 1'
        ),
        (((0, 1, 2), (6, 7, 8)), ((3, 4, 5), (9, 10, 11)), None),
    ),
    ('PARALLEL', '2pc'): (
        (
            'V 0 x1 | V 1 x2 | V 2 clause1 | V 3 balance1 | V 4 balance2 | '
            'V 5 balance3 | V 6 balance4 | V 7 balance5 | V 8 balance6 | '
            'V 9 balance7 | V 10 balance1 | V 11 balance2 | V 12 balance3 | '
            'V 13 balance4 | V 14 balance5 | V 15 balance6 | V 16 balance7 | E 0 2 | '
            'E 2 3 | E 3 0 | E 0 4 | E 4 5 | E 5 0 | E 1 6 | E 6 7 | E 7 1 | E 1 8 | '
            'E 8 9 | E 9 1 | E 10 11 | E 11 12 | E 12 13 | E 13 14 | E 14 15 | '
            'E 15 16 | E 16 10'
        ),
        (
            'VAR 1 TRUE 0 2 3 | VAR 1 FALSE 0 4 5 | VAR 2 TRUE 1 6 7 | '
            'VAR 2 FALSE 1 8 9 | BALANCECYCLE 10 11 12 13 14 15 16 | CLAUSE 1 1'
        ),
        (((0, 1, 2), (6, 7, 8)), ((3, 4, 5), (9, 10, 11)), (12, 13, 14, 15, 16, 17, 18)),
    ),
    ('EMPTY', 'plain'): (
        '',
        '',
        ((), (), None),
    ),
    ('EMPTY', 'balanced'): (
        '',
        '',
        ((), (), None),
    ),
    ('EMPTY', '2pc'): (
        '',
        '',
        ((), (), None),
    ),
}


def records(text: str) -> str:
    assert text == "" or text.endswith("\n")
    return " | ".join(text.splitlines())


def edge_ids(cycles) -> tuple[tuple[int, ...], ...]:
    return tuple(c.edge_ids for c in cycles)


def dimacs(cnf: bc.CnfInstance) -> str:
    lines = [f"p cnf {cnf.num_vars} {cnf.num_clauses}"]
    lines += [" ".join(map(str, (*clause, 0))) for clause in cnf.clauses]
    return "\n".join(lines) + "\n"


def test_golden_covers_every_formula_and_variant():
    assert set(GOLDEN) == {(name, variant) for name in CNFS for variant in bc.GADGET_VARIANTS}


@pytest.mark.parametrize("cnf_name, variant", sorted(GOLDEN))
def test_gadget_layout_is_frozen(cnf_name, variant):
    art = bc.build_sat_graph(CNFS[cnf_name], variant)
    graph_text, map_text, loops = GOLDEN[cnf_name, variant]
    assert records(bc.serialize_graph(art.graph)) == graph_text
    assert records(bc.serialize_gadget_map(bc.gadget_map(art))) == map_text
    balance = art.balance_cycle.edge_ids if art.balance_cycle is not None else None
    assert (edge_ids(art.true_loops), edge_ids(art.false_loops), balance) == loops


@pytest.mark.parametrize("cnf_name, variant", sorted(GOLDEN))
def test_reduce_writes_the_golden_files(cnf_name, variant, tmp_path):
    cnf, graph, gmap = tmp_path / "f.cnf", tmp_path / "g.graph", tmp_path / "g.map"
    cnf.write_text(dimacs(CNFS[cnf_name]))
    assert bc.parse_dimacs(cnf.read_text()) == CNFS[cnf_name]
    assert main(["reduce", "--cnf", str(cnf), "--variant", variant,
                 "--output", str(graph), "--map", str(gmap)]) == 0
    graph_text, map_text, _ = GOLDEN[cnf_name, variant]
    assert records(graph.read_text()) == graph_text
    assert records(gmap.read_text()) == map_text


# CNF_A's maps as `reduce` wrote them while maps still restated the gadget
# graph's colour labels in CLAUSECOLOR and BALANCECOLOR records
OLDER_MAPS = {
    'plain': (
        'VAR 1 TRUE 0 2 | VAR 1 FALSE 0 | VAR 2 TRUE 1 4 | VAR 2 FALSE 1 3 | '
        'CLAUSECOLOR 1 clause1 | CLAUSECOLOR 2 clause2 | CLAUSE 1 1 -2 | CLAUSE 2 2'
    ),
    'balanced': (
        'VAR 1 TRUE 0 2 5 | VAR 1 FALSE 0 6 7 | VAR 2 TRUE 1 4 8 | VAR 2 FALSE 1 3 9 | '
        'CLAUSECOLOR 1 clause1 | CLAUSECOLOR 2 clause2 | BALANCECOLOR balance | '
        'CLAUSE 1 1 -2 | CLAUSE 2 2'
    ),
    '2pc': (
        'VAR 1 TRUE 0 2 5 | VAR 1 FALSE 0 6 7 | VAR 2 TRUE 1 4 8 | VAR 2 FALSE 1 3 9 | '
        'CLAUSECOLOR 1 clause1 | CLAUSECOLOR 2 clause2 | '
        'BALANCECOLOR balance1 balance2 balance3 balance4 balance5 | '
        'BALANCECYCLE 10 11 12 13 14 | CLAUSE 1 1 -2 | CLAUSE 2 2'
    ),
}


@pytest.mark.parametrize("variant", sorted(OLDER_MAPS))
def test_older_maps_read_and_pull_back_as_before(variant, tmp_path, capsys):
    older = OLDER_MAPS[variant].replace(" | ", "\n") + "\n"
    assert bc.parse_gadget_map(older) == bc.gadget_map(bc.build_sat_graph(CNF_A, variant))
    cnf, graph, gmap = tmp_path / "f.cnf", tmp_path / "g.graph", tmp_path / "g.map"
    old_map, solution = tmp_path / "old.map", tmp_path / "g.sol"
    cnf.write_text(dimacs(CNF_A))
    old_map.write_text(older)
    assert main(["reduce", "--cnf", str(cnf), "--variant", variant,
                 "--output", str(graph), "--map", str(gmap)]) == 0
    assert main(["clear", "--input", str(graph), "--objective", "tex",
                 "--output", str(solution)]) == 0
    capsys.readouterr()
    outs = []
    for path in (old_map, gmap):
        assert main(["pullback", "--map", str(path), "--solution", str(solution)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == "x1 T\nx2 T\nsatisfied 2 of 2\n"
