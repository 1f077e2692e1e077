"""Team SOLVE — the naive parallelization (Section 2, Proposition 1).

At each step the team evaluates the leftmost ``p`` live leaves.  On
uniform trees this guarantees only an Omega(sqrt(p)) speed-up over
Sequential SOLVE, and instances exist where sqrt(p) is also an upper
bound (see :func:`repro.trees.generators.team_solve_hard_instance`).
It is the baseline that Parallel SOLVE's width strategy improves on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..models.accounting import EvalResult
from ..telemetry import Recorder
from ..trees.base import GameTree
from .arena import arena_team_solve
from .frontier import IncrementalTeamPolicy
from .parallel_solve import (
    check_shm_support,
    resolve_backend,
    resolve_executor,
)
from .policies import TeamPolicy
from .solve_engine import Policy, run_boolean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shm import ShmOptions


def team_solve(
    tree: GameTree,
    processors: int,
    *,
    keep_batches: bool = False,
    backend: Optional[str] = None,
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Run Team SOLVE with ``processors`` processors on a Boolean tree.

    ``backend`` selects the frontier engine and ``executor`` the leaf
    evaluation site (see
    :func:`repro.core.parallel_solve.parallel_solve`).
    """
    policy: Policy
    backend = resolve_backend(backend)
    if resolve_executor(executor) == "shm":
        check_shm_support("team-solve", backend)
        from .shm import shm_team_solve

        return shm_team_solve(
            tree, processors,
            keep_batches=keep_batches,
            recorder=recorder,
            options=shm_options,
        )
    if backend == "arena":
        return arena_team_solve(
            tree, processors, keep_batches=keep_batches, recorder=recorder
        )
    if backend == "incremental":
        policy = IncrementalTeamPolicy(processors)
        policy.recorder = recorder
    else:
        policy = TeamPolicy(processors)
    return run_boolean(
        tree, policy, keep_batches=keep_batches, recorder=recorder
    )
