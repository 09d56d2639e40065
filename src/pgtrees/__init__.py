"""Parity game solving over compact universal trees."""

from .game import parse_pgsolver, random_game
from .solver import brute_force_solve, solve, zielonka
from .trees import (
    embeds,
    enumerate_trees,
    find_counterexample,
    leaf_count,
    universal_tree,
    verify_universal,
)
from .widths import (
    bound_binomial,
    bound_exponential,
    ceil_log2,
    width_closed_form,
    width_recursive,
    width_report,
)

__version__ = "0.1.0"
