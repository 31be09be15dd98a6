"""Barter-exchange clearing over vertex-colored trading graphs.

Items are vertices, agents are colors, and a clearing is a set of
vertex-disjoint simple cycles.  The package solves the polynomial
max-vertex objective exactly as a sparse assignment problem, solves the
NP-hard color-aware objectives exactly at desk scale by a cycle search,
carries the per-color-bound approximation, and compiles CNF formulas into
gadget graphs whose clearings encode truth assignments.
"""

from .approx import EmptyGraph, approx_jpc, per_color_bound
from .assignment import solve_max_size
from .exact import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Objective,
    SearchBudget,
    SearchStats,
    TooLarge,
    brute_force_best,
    solve_maxtex,
    solve_tex,
    solve_tmaxex,
    solve_with_stats,
)
from .formats import (
    BadParameters,
    DuplicateItem,
    GadgetMap,
    ParseError,
    RunReport,
    UnknownWantedItem,
    gen_random,
    parse_cycles,
    parse_dimacs,
    parse_gadget_map,
    parse_graph,
    parse_report,
    parse_solution,
    parse_wantlist,
    serialize_cycles,
    serialize_gadget_map,
    serialize_graph,
    serialize_report,
    serialize_solution,
    serialize_wantlist,
    solution_cycles,
)
from .graph import (
    BrokenChain,
    ColoredDigraph,
    Cycle,
    CycleSet,
    CycleSetError,
    EMPTY_CYCLE_SET,
    NonexistentEdge,
    OverlapBetweenCycles,
    RepeatedVertexInCycle,
    SolutionMetrics,
    build_graph,
    canonical_cycle_set,
    canonical_cycle_vertices,
    cycle_set_from_vertices,
    cycle_vertices,
    is_tropical,
    successor_cycles,
    validate_cycle_set,
    without_self_loops,
)
from .reductions import (
    ClauseTooLarge,
    InvalidSolution,
    LReductionCheck,
    ReductionArtifact,
    add_balance_vertices,
    assignment_from_loops,
    build_2pc_graph,
    build_sat_graph,
    clause_colors_covered,
    extract_assignment,
    full_selection,
    gadget_map,
    l_reduction_check,
)
from .sat import (
    CnfInstance,
    EmptyClause,
    LiteralOutOfRange,
    TooManyVariables,
    is_satisfiable,
    max_satisfiable,
    satisfied_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
