"""Barter-exchange clearing over vertex-colored trading graphs.

Items are vertices, agents are colors, and a clearing is a set of
vertex-disjoint simple cycles.  The package solves the polynomial
max-vertex objective exactly as a sparse assignment problem, solves the
NP-hard color-aware objectives exactly at desk scale by a cycle search,
carries the per-color-bound approximation, and compiles CNF formulas into
gadget graphs whose clearings encode truth assignments.

Every tuple a call makes is built at its final size, from a list or another
sized object, never from a generator, ``map`` or ``zip``.  CPython builds a
tuple from an iterator of unknown length at a guessed size and resizes it;
once freed, it joins the interpreter's free list for its final size, and
each such list keeps up to 2000 tuples until a full garbage collection,
which a call that allocates few tracked objects seldom triggers.  So a
call that broke the rule would leave memory behind on every repeat.  Two
residuals are not the package's: CPython 3.11 keeps every freed 20-item
tuple, even one built from a list, and scipy's ``check_shape`` leaves two
2-item shape tuples per ``max-size`` solve.  To check a change, compare the
free-tuple counts that ``sys._debugmallocstats()`` prints before and after
a few hundred repeated calls.
"""

from .approx import EmptyGraph, approx_jpc, per_color_bound
from .assignment import solve_max_size
from .exact import (
    BudgetExceeded,
    Objective,
    SearchBudget,
    SearchStats,
    TooLarge,
    brute_force_best,
    solve_with_stats,
)
from .formats import (
    BadParameters,
    DuplicateItem,
    GadgetMap,
    ParseError,
    UnknownWantedItem,
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
    serialize_wantlist,
)
from .graph import (
    BrokenChain,
    ColoredDigraph,
    Cycle,
    CycleSet,
    CycleSetError,
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
    GADGET_VARIANTS,
    ClauseTooLarge,
    InvalidSolution,
    LReductionCheck,
    ReductionArtifact,
    assignment_from_loops,
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
