"""N-Sequential SOLVE and N-Parallel SOLVE wrappers (Section 5).

``n_sequential_solve`` is the paper's S-SOLVE* — a left-to-right
depth-first search that generates the tree as it goes — and
``n_parallel_solve`` its width-w parallelization P-SOLVE*.  Theorem 4:
width 1 achieves a c(n+1) speed-up in expansions-per-step on uniform
trees, with n+1 processors.
"""

from __future__ import annotations

from typing import Optional

from ...errors import BackendUnsupportedError
from ...models.accounting import EvalResult
from ...trees.base import GameTree
from ..parallel_solve import resolve_backend
from .engine import (
    IncrementalNWidthPolicy,
    NSequentialPolicy,
    NWidthPolicy,
    run_expansion,
)


def n_sequential_solve(tree: GameTree, **kw) -> EvalResult:
    """Expand the leftmost frontier node at each step (S-SOLVE*)."""
    return run_expansion(tree, NSequentialPolicy(), **kw)


def n_parallel_solve(
    tree: GameTree,
    width: int = 1,
    *,
    backend: Optional[str] = None,
    **kw,
) -> EvalResult:
    """Expand all frontier nodes with pruning number <= width (P-SOLVE*).

    ``backend`` selects the frontier engine (see
    :func:`repro.core.parallel_solve.parallel_solve`).  The arena
    backend lowers a *fixed* tree to arrays up front, which the
    expansion model's grow-as-you-go frontier contradicts, so it is
    rejected here rather than silently falling back.
    """
    backend = resolve_backend(backend)
    if backend == "arena":
        raise BackendUnsupportedError(
            "engine 'n-parallel-solve' has no arena backend "
            "(the expansion model grows the tree as it goes, so there "
            "is nothing to lower up front); use 'incremental' or "
            "'rescan'",
            engine="n-parallel-solve", backend="arena",
        )
    if backend == "incremental":
        policy = IncrementalNWidthPolicy(width)
        policy.recorder = kw.get("recorder")
        return run_expansion(tree, policy, **kw)
    return run_expansion(tree, NWidthPolicy(width), **kw)
