"""Parity game solving over compact universal trees."""

from .game import (
    EVEN,
    ODD,
    GameError,
    GameGraph,
    ParseError,
    PriorityCounts,
    normalize_priorities,
    parse_pgsolver,
    priority_counts,
    random_game,
    serialize_pgsolver,
)
from .solver import (
    Measure,
    SolveResult,
    SolveStats,
    WinningRegions,
    brute_force_solve,
    edge_consistent,
    format_regions,
    lift,
    live_levels,
    prefix_length,
    solve,
    vertex_consistent,
    zielonka,
)
from .trees import (
    OrderedTree,
    embeds,
    enumerate_trees,
    find_counterexample,
    leaf_count,
    universal_tree,
    verify_universal,
    with_stop_branches,
)
from .widths import (
    CSV_HEADER,
    WidthRow,
    WidthTable,
    bound_binomial,
    bound_exponential,
    bound_old,
    ceil_log2,
    floor_log2,
    width_closed_form,
    width_recursive,
    width_report,
)

__version__ = "0.1.0"
