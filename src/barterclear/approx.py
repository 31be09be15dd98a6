"""Color-count approximation for markets with bounded items per agent.

When no agent brings more than j items (no color appears on more than j
vertices), simply solving the max-vertex objective while ignoring colors is
a 1/j-approximation for the max-color objective: an agent whose color would
appear in some color-optimal clearing has at most j vertices, and a
vertex-maximum clearing can miss at most j-1 of them per covered color.
For j = 1 the approximation is exact, since vertices and colors coincide.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .assignment import solve_max_size
from .graph import ColoredDigraph, CycleSet


class EmptyGraph(ValueError):
    """The per-color bound is undefined on an empty market."""


def per_color_bound(g: ColoredDigraph) -> int:
    """Exact maximum color multiplicity: the j of "at most j items per agent"."""
    if g.vertex_count == 0:
        raise EmptyGraph("no vertices")
    return int(np.bincount(g.vertex_colors).max())


def approx_jpc(g: ColoredDigraph) -> tuple[CycleSet, Fraction]:
    """Solve the max-vertex objective ignoring colors, with its color guarantee.

    Returns the (deterministic) max-vertex cycle set unchanged, plus the
    claimed ratio 1/j: the set's color count is at least 1/j of the best
    color count any cycle set can reach.  No color-aware post-processing is
    applied; the guarantee is for the bare max-vertex solution.
    """
    j = per_color_bound(g)
    return solve_max_size(g), Fraction(1, j)
