"""Parallel SOLVE — the paper's main algorithm (Section 2, Theorem 1).

At each step, evaluate *all live leaves with pruning number at most w*.
The pruning number of a live leaf is the total number of live
left-siblings of its ancestors; leaves with small pruning number are the
ones Sequential SOLVE is "likely" to reach soon, so the width-w policy
is a cascade of left-to-right searches running ahead of the leftmost
one.

Width 0 coincides with Sequential SOLVE.  On a uniform tree of height
n, width 1 uses at most n + 1 processors and achieves a speed-up of
c(n+1) over Sequential SOLVE on *every* instance (Theorem 1).

Three step-for-step identical backends implement the selection:
``"rescan"`` recomputes it with a budgeted DFS every step — the
literal reading of the paper's definition, kept as the reference
implementation; ``"incremental"`` maintains the frontier in a priority
structure updated on each determination (:mod:`repro.core.frontier`);
``"arena"`` runs vectorised sweeps over the lowered tree
(:mod:`repro.core.arena`).

With no ``backend=`` argument, :func:`resolve_backend` runs
incremental when ``max_processors`` bounds the selection and rescan
otherwise, the faster of the two in each regime.  On the solve-grid
workload (``perfbench/run.py --workload solve-grid --trace 1``,
medians of seeds 1-4, 2-core host), moving off incremental took
``core.cell.team_p4_d5n7_ms`` from 208 to 27 ms and
``core.cell.parallel_w4_d5n7_ms`` from 125 to 61 ms; the bounded
``core.cell.bounded_w4p2_d4n8_ms`` stays on incremental, which the
``e21b/speedup`` gate holds at >= 5x over rescan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import BackendUnsupportedError
from ..models.accounting import EvalResult
from ..telemetry import Recorder
from ..trees.base import GameTree
from .arena import (
    ArenaBoundedWidthPolicy,
    ArenaWidthPolicy,
    arena_parallel_solve,
    arena_saturation_solve,
)
from .frontier import (
    IncrementalBoundedWidthPolicy,
    IncrementalSaturationPolicy,
    IncrementalWidthPolicy,
)
from .policies import BoundedWidthPolicy, SaturationPolicy, WidthPolicy
from .solve_engine import Policy, run_boolean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shm import ShmOptions

#: Selection backends accepted by the solver entry points.
BACKENDS = ("incremental", "rescan", "arena")

#: Leaf executors accepted by the solver entry points: ``"inline"``
#: evaluates leaves in-process (the model-step default), ``"shm"``
#: dispatches each step's batch to a shared-memory worker pool
#: (:mod:`repro.core.shm`; requires ``backend="arena"``).
EXECUTORS = ("inline", "shm")


def resolve_backend(
    backend: Optional[str], *, max_processors: Optional[int] = None
) -> str:
    """Validate a ``backend=`` argument; ``None`` picks the default.

    The default is the measured-fastest backend for the call
    (docs/frontier_engine.md, "Choosing a backend"): ``"incremental"``
    when ``max_processors`` caps the selection, ``"rescan"`` for every
    unbounded selection.  An explicit backend is returned unchanged.
    """
    if backend is None:
        return "rescan" if max_processors is None else "incremental"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def resolve_executor(executor: str) -> str:
    """Validate an ``executor=`` argument, returning it unchanged."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    return executor


def check_shm_support(
    engine: str,
    backend: str,
    *,
    on_step=None,
) -> None:
    """Reject engine configurations the shm executor cannot honour.

    The shared-memory pool maps the arena's flat columns, so only
    ``backend="arena"`` can feed it; ``on_step`` hooks observe the
    in-process object-graph state, which a cross-process run does not
    materialise.  Raises
    :class:`~repro.errors.BackendUnsupportedError` naming the engine
    and the rejected combination.
    """
    if backend != "arena":
        raise BackendUnsupportedError(
            f"engine {engine!r} supports executor='shm' only on the "
            f"arena backend (shared memory maps the lowered columns); "
            f"got backend={backend!r}",
            engine=engine, backend=backend, executor="shm",
        )
    if on_step is not None:
        raise BackendUnsupportedError(
            f"engine {engine!r} cannot combine executor='shm' with an "
            f"on_step hook (the hook observes in-process state)",
            engine=engine, backend=backend, executor="shm",
        )


def parallel_solve(
    tree: GameTree,
    width: int = 1,
    *,
    max_processors: Optional[int] = None,
    keep_batches: bool = False,
    on_step=None,
    backend: Optional[str] = None,
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Run Parallel SOLVE of the given width on a Boolean tree.

    ``max_processors`` caps the per-step batch at the most urgent
    leaves (smallest pruning number, leftmost on ties) — the practical
    fixed-machine variant the paper's Section 7 closes with.

    ``backend`` selects the frontier engine: ``"rescan"`` (the
    reference per-step recomputation), ``"incremental"`` (a maintained
    frontier index) or ``"arena"`` (vectorised struct-of-arrays
    sweeps).  All produce identical per-step batches.  ``None`` (the
    default) picks incremental under ``max_processors`` and rescan
    otherwise (:func:`resolve_backend`).

    ``executor`` selects where leaf batches are evaluated:
    ``"inline"`` (in-process, the default) or ``"shm"`` (a
    shared-memory worker pool over the arena columns, see
    :mod:`repro.core.shm`; requires ``backend="arena"`` and tuned via
    ``shm_options``).  Batches, steps and values are identical across
    executors for pure oracles.

    ``recorder`` attaches a telemetry sink (step spans, degree
    samples, frontier counters); the default records nothing.
    """
    policy: Policy
    backend = resolve_backend(backend, max_processors=max_processors)
    if resolve_executor(executor) == "shm":
        check_shm_support("parallel-solve", backend, on_step=on_step)
        from .shm import shm_parallel_solve

        return shm_parallel_solve(
            tree, width,
            max_processors=max_processors,
            keep_batches=keep_batches,
            recorder=recorder,
            options=shm_options,
        )
    if backend == "arena":
        if on_step is None:
            return arena_parallel_solve(
                tree, width,
                max_processors=max_processors,
                keep_batches=keep_batches,
                recorder=recorder,
            )
        # on_step hooks receive the real BooleanState, so the engine
        # loop stays object-graph with arena-backed selection.
        if max_processors is None:
            policy = ArenaWidthPolicy(width)
        else:
            policy = ArenaBoundedWidthPolicy(width, max_processors)
    elif backend == "incremental":
        if max_processors is None:
            policy = IncrementalWidthPolicy(width)
        else:
            policy = IncrementalBoundedWidthPolicy(width, max_processors)
        policy.recorder = recorder
    elif max_processors is None:
        policy = WidthPolicy(width)
    else:
        policy = BoundedWidthPolicy(width, max_processors)
    return run_boolean(
        tree,
        policy,
        keep_batches=keep_batches,
        on_step=on_step,
        recorder=recorder,
    )


def saturation_solve(
    tree: GameTree,
    *,
    keep_batches: bool = False,
    backend: Optional[str] = None,
    executor: str = "inline",
    shm_options: "Optional[ShmOptions]" = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Evaluate every live leaf at every step (unbounded parallelism)."""
    policy: Policy
    backend = resolve_backend(backend)
    if resolve_executor(executor) == "shm":
        check_shm_support("saturation-solve", backend)
        from .shm import shm_saturation_solve

        return shm_saturation_solve(
            tree,
            keep_batches=keep_batches,
            recorder=recorder,
            options=shm_options,
        )
    if backend == "arena":
        return arena_saturation_solve(
            tree, keep_batches=keep_batches, recorder=recorder
        )
    if backend == "incremental":
        policy = IncrementalSaturationPolicy()
        policy.recorder = recorder
    else:
        policy = SaturationPolicy()
    return run_boolean(
        tree, policy, keep_batches=keep_batches, recorder=recorder
    )


def span(tree: GameTree) -> int:
    """The instance's span: steps under unbounded parallelism.

    No live-leaf policy can finish in fewer steps, so the speed-up of
    any width/processor configuration is capped by S(T) / span(T).
    """
    return saturation_solve(tree).num_steps
