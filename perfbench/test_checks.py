"""The benchmark's answer checks accept right answers and reject corrupted ones.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

import checks
from checks import Market, Reference, WrongAnswer
from workloads import _colored_market, _gadget_op, planted_cnf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def market(agent: dict[str, str], edges: list[tuple[str, str]]) -> Market:
    return Market(agent, frozenset(edges))


# a 4-cycle a-b-c-d of agent A, a chord c -> a closing a 3-cycle, and a
# 2-cycle a <-> e with agent B
RING = market({"a": "A", "b": "A", "c": "A", "d": "A", "e": "B"},
              [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("c", "a"),
               ("a", "e"), ("e", "a")])


def report(items: int, agents: int) -> str:
    return f"objective x\nvertices {items}\ncolors {agents}\n"


def test_clearing_accepted():
    assert checks.check_clearing(RING, "C a b c d\n", report(4, 1)) == (4, 1)
    assert checks.check_clearing(RING, "C e a\n", report(2, 2)) == (2, 2)
    assert checks.check_clearing(RING, "", report(0, 0)) == (0, 0)


def test_clearing_with_missing_edge_rejected():
    with pytest.raises(WrongAnswer, match="missing edge"):
        checks.check_clearing(RING, "C a c b\n", report(3, 1))


def test_overlapping_cycles_rejected():
    with pytest.raises(WrongAnswer, match="overlaps"):
        checks.check_clearing(RING, "C a b c\nC a e\n", report(5, 2))


def test_cycle_repeating_an_item_rejected():
    with pytest.raises(WrongAnswer, match="repeats"):
        checks.check_clearing(RING, "C a e a e\n", report(4, 2))


def test_misreported_count_rejected():
    with pytest.raises(WrongAnswer, match="reported vertices"):
        checks.check_clearing(RING, "C a b c d\n", report(5, 1))


def test_max_size_one_below_the_optimum_rejected():
    ref = Reference(RING)
    checks.check_max_size(ref, "C a b c d\n", report(4, 1))
    with pytest.raises(WrongAnswer, match="items traded"):
        checks.check_max_size(ref, "C a b c\n", report(3, 1))


@pytest.mark.parametrize("seed", range(20))
def test_max_traded_agrees_with_exhaustion(seed):
    m, _ = _colored_market(random.Random(seed), 8, 3)
    assert checks.max_traded(m) == checks.exhaustive_optima(m)["tmaxex"][0]


def test_max_traded_counts_self_loops():
    assert checks.max_traded(market({"a": "A", "b": "B"}, [("a", "a"), ("a", "b")])) == 1
    assert checks.max_traded(market({}, [])) == 0


def test_color_objectives_accepted():
    ref, answers = Reference(RING), {}
    checks.check_color_objective(ref, "tex", "C a e\n", report(2, 2), answers, True)
    checks.check_color_objective(ref, "tmaxex", "C a b c d\n", report(4, 1), answers, True)
    checks.check_color_objective(ref, "maxtex", "C a e\n", report(2, 2), answers, True)


def test_color_objective_one_below_the_optimum_rejected():
    with pytest.raises(WrongAnswer, match="tex optimum"):
        checks.check_color_objective(Reference(RING), "tex", "C a b c d\n", report(4, 1),
                                     {}, True)


def test_color_objectives_cross_checked():
    ref, answers = Reference(RING), {"tex": (2, 2)}
    with pytest.raises(WrongAnswer, match="maxtex agents"):
        checks.check_color_objective(ref, "maxtex", "C a b c d\n", report(4, 1), answers, False)
    with pytest.raises(WrongAnswer, match="tmaxex items"):
        checks.check_color_objective(ref, "tmaxex", "C a e\n", report(2, 2), answers, False)


def test_satisfied_counts_clauses():
    clauses = [(1, -2), (2, 3), (-1, -3)]
    assert checks.satisfied(clauses, {1: True, 2: True, 3: False}) == 3
    assert checks.satisfied(clauses, {1: True, 2: False, 3: True}) == 2
    assert checks.satisfied(clauses, {1: True}) == 1  # unassigned makes nothing true


@pytest.mark.parametrize("seed", range(10))
def test_planted_cnf_is_satisfiable(seed):
    clauses = planted_cnf(random.Random(seed), 5, 21, 3)
    assignments = ({v: bool(mask >> (v - 1) & 1) for v in range(1, 6)} for mask in range(32))
    assert any(checks.satisfied(clauses, a) == len(clauses) for a in assignments)


def run_steps(op) -> list[str]:
    from barterclear.cli import main

    outs = []
    for argv in op.steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        outs.append(out.getvalue())
    return outs


@pytest.mark.parametrize("variant", ["plain", "balanced", "2pc"])
def test_gadget_check_on_real_output_and_unsatisfied_clause(tmp_path, variant):
    clauses = planted_cnf(random.Random(3), 3, 6 if variant != "2pc" else 3,
                          3 if variant != "2pc" else 2)
    op = _gadget_op(tmp_path, "g", variant, 3, clauses)
    outs = run_steps(op)
    assert op.check(outs) > 0
    # an assignment making every literal of the first clause false
    broken = {v: True for v in range(1, 4)}
    broken.update({abs(lit): lit < 0 for lit in clauses[0]})
    lines = "".join(f"x{v} {'T' if broken[v] else 'F'}\n" for v in sorted(broken))
    with pytest.raises(WrongAnswer, match="satisfied clauses"):
        op.check([outs[0], outs[1], lines + outs[2].splitlines()[-1] + "\n"])
