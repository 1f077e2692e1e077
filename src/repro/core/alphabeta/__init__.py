"""MIN/MAX tree evaluation: the alpha-beta pruning process (Section 4)."""

from .engine import (
    AlphaBetaWidthPolicy,
    IncrementalAlphaBetaWidthPolicy,
    prune_pass,
    prune_to_fixpoint,
    reference_prune_pass,
    run_minmax,
    select_unfinished_by_pruning_number,
)
from .parallel import parallel_alpha_beta, sequential_alpha_beta
from .scout import ScoutResult, scout
from .sequential import alpha_beta, alpha_beta_leaf_set, minimax
from .sss import sss_leaf_count, sss_star
from .state import AlphaBetaState

__all__ = [
    "AlphaBetaState",
    "AlphaBetaWidthPolicy",
    "IncrementalAlphaBetaWidthPolicy",
    "run_minmax",
    "prune_to_fixpoint",
    "prune_pass",
    "reference_prune_pass",
    "select_unfinished_by_pruning_number",
    "sequential_alpha_beta",
    "parallel_alpha_beta",
    "alpha_beta",
    "alpha_beta_leaf_set",
    "minimax",
    "scout",
    "ScoutResult",
    "sss_star",
    "sss_leaf_count",
]
