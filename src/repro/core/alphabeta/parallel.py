"""Sequential and Parallel alpha-beta as pruning-process policies.

``sequential_alpha_beta`` is the paper's leaf-evaluation-model statement
"at each step, evaluate the leftmost unfinished leaf of the current
pruned tree" — i.e. the width-0 policy.  ``parallel_alpha_beta`` is the
width-w generalisation of Section 4 (Theorem 3: width 1 gives a c(n+1)
speed-up on uniform MIN/MAX trees using n+1 processors).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...models.accounting import EvalResult
from ...telemetry import Recorder
from ...trees.base import GameTree
from ..arena import ArenaAlphaBetaWidthPolicy, arena_alpha_beta
from ..parallel_solve import (
    check_shm_support,
    resolve_backend,
    resolve_executor,
)
from .engine import (
    AlphaBetaWidthPolicy,
    IncrementalAlphaBetaWidthPolicy,
    MinmaxPolicy,
    run_minmax,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..shm import ShmOptions


def _width_policy(
    width: int, backend: str, recorder: Optional[Recorder] = None
) -> MinmaxPolicy:
    if backend == "arena":
        return ArenaAlphaBetaWidthPolicy(width)
    if backend == "incremental":
        policy = IncrementalAlphaBetaWidthPolicy(width)
        policy.recorder = recorder
        return policy
    return AlphaBetaWidthPolicy(width)


def sequential_alpha_beta(
    tree: GameTree,
    *,
    keep_batches: bool = False,
    backend: Optional[str] = None,
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """The alpha-beta pruning procedure, one leaf per basic step."""
    backend = resolve_backend(backend)
    if resolve_executor(executor) == "shm":
        check_shm_support("sequential-alpha-beta", backend)
        from ..shm import shm_sequential_alpha_beta

        return shm_sequential_alpha_beta(
            tree,
            keep_batches=keep_batches,
            recorder=recorder,
            options=shm_options,
        )
    if backend == "arena":
        return arena_alpha_beta(
            tree, 0, keep_batches=keep_batches, recorder=recorder
        )
    return run_minmax(
        tree,
        _width_policy(0, backend, recorder),
        keep_batches=keep_batches,
        recorder=recorder,
    )


def parallel_alpha_beta(
    tree: GameTree,
    width: int = 1,
    *,
    keep_batches: bool = False,
    on_step=None,
    backend: Optional[str] = None,
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Parallel alpha-beta of the given width.

    ``backend`` selects the frontier engine: ``"rescan"`` (the
    reference per-step recomputation, and the default), ``"incremental"``
    (a maintained frontier index) or ``"arena"`` (vectorised
    struct-of-arrays sweeps).  All produce identical per-step batches.

    ``executor`` selects where leaf batches are evaluated:
    ``"inline"`` (in-process, the default) or ``"shm"`` (a
    shared-memory worker pool over the arena columns, see
    :mod:`repro.core.shm`; requires ``backend="arena"``).

    ``recorder`` attaches a telemetry sink (step spans with prune
    counts, degree samples, frontier counters).
    """
    backend = resolve_backend(backend)
    if resolve_executor(executor) == "shm":
        check_shm_support("parallel-alpha-beta", backend, on_step=on_step)
        from ..shm import shm_parallel_alpha_beta

        return shm_parallel_alpha_beta(
            tree, width,
            keep_batches=keep_batches,
            recorder=recorder,
            options=shm_options,
        )
    if backend == "arena" and on_step is None:
        return arena_alpha_beta(
            tree, width, keep_batches=keep_batches, recorder=recorder
        )
    return run_minmax(
        tree,
        _width_policy(width, backend, recorder),
        keep_batches=keep_batches,
        on_step=on_step,
        recorder=recorder,
    )
