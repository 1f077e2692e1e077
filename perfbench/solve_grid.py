"""solve-grid: direct solver calls over a width x branching x height grid.

The calls pass **no backend argument**, so whatever the solvers'
default backend is gets measured.  Every solve runs on a fresh tree
object built from leaf values made in set-up, so any per-object
memo (hash, arena lowering) is paid as it would be for a new instance.
References come from ``backend="rescan"``, the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import parallel_solve, sequential_solve, team_solve
from repro.core.alphabeta import parallel_alpha_beta, sequential_alpha_beta
from repro.trees.generators import iid_boolean, iid_minmax
from repro.trees.generators.iid import level_invariant_bias
from repro.trees.uniform import UniformTree
from repro.types import TreeKind

from .catalog import CELLS
from .clock import gauge_due, now
from .harness import Phase, Workload, collect_garbage, guarded
from .stats import class_time
from .trace import Tracer

__all__ = ["SolveGrid", "GRID"]

Solve = Callable[..., Any]


@dataclass(frozen=True)
class Cell:
    name: str
    kind: TreeKind
    branching: int
    height: int
    #: the measured call, default backend.
    solve: Solve
    #: the same computation on the rescan reference engine.
    reference: Solve


GRID: Tuple[Cell, ...] = (
    Cell("parallel_w1_d5n7", TreeKind.BOOLEAN, 5, 7,
         lambda t: parallel_solve(t, 1),
         lambda t: parallel_solve(t, 1, backend="rescan")),
    Cell("parallel_w4_d5n7", TreeKind.BOOLEAN, 5, 7,
         lambda t: parallel_solve(t, 4),
         lambda t: parallel_solve(t, 4, backend="rescan")),
    Cell("bounded_w4p2_d4n8", TreeKind.BOOLEAN, 4, 8,
         lambda t: parallel_solve(t, 4, max_processors=2),
         lambda t: parallel_solve(t, 4, max_processors=2, backend="rescan")),
    Cell("team_p4_d5n7", TreeKind.BOOLEAN, 5, 7,
         lambda t: team_solve(t, 4),
         lambda t: team_solve(t, 4, backend="rescan")),
    # S-SOLVE is width-0 parallel SOLVE on the reference engine.
    Cell("sequential_d2n12", TreeKind.BOOLEAN, 2, 12,
         sequential_solve,
         lambda t: parallel_solve(t, 0, backend="rescan")),
    Cell("parallel_w1_d2n12", TreeKind.BOOLEAN, 2, 12,
         lambda t: parallel_solve(t, 1),
         lambda t: parallel_solve(t, 1, backend="rescan")),
    Cell("alphabeta_w1_d5n6", TreeKind.MINMAX, 5, 6,
         lambda t: parallel_alpha_beta(t, 1),
         lambda t: parallel_alpha_beta(t, 1, backend="rescan")),
    Cell("alphabeta_w4_d5n6", TreeKind.MINMAX, 5, 6,
         lambda t: parallel_alpha_beta(t, 4),
         lambda t: parallel_alpha_beta(t, 4, backend="rescan")),
    Cell("sequential_ab_d5n6", TreeKind.MINMAX, 5, 6,
         sequential_alpha_beta,
         lambda t: sequential_alpha_beta(t, backend="rescan")),
)
assert tuple(c.name for c in GRID) == CELLS

#: Instances per cell; each cell's time averages their medians.
INSTANCES = 6
WARMUP_SEED = 7_919_000


def leaves_for(cell: Cell, height: int, seed: int) -> np.ndarray:
    """Leaf values of one i.i.d. instance (level-invariant bias for SOLVE)."""
    if cell.kind is TreeKind.BOOLEAN:
        tree = iid_boolean(
            cell.branching, height, level_invariant_bias(cell.branching),
            seed=seed,
        )
    else:
        tree = iid_minmax(cell.branching, height, seed=seed)
    return tree.leaf_values_array


def fresh(cell: Cell, leaves: np.ndarray, height: int = 0) -> UniformTree:
    """A new tree object over stored leaves (no memo carried over)."""
    return UniformTree(
        cell.branching, height or cell.height, leaves, kind=cell.kind
    )


def outcome(result: Any) -> Tuple[float, int, int]:
    return float(result.value), int(result.num_steps), int(result.total_work)


class SolveGrid(Workload):
    name = "solve-grid"
    operation = "solve"
    mixed_classes = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: (cell index, instance) -> leaf values.
        self.instances: Dict[Tuple[int, int], np.ndarray] = {}
        self._references: Dict[Tuple[int, int], Tuple[float, int, int]] = {}

    def setup(self) -> None:
        for c, cell in enumerate(GRID):
            for k in range(INSTANCES):
                self.instances[(c, k)] = leaves_for(
                    cell, cell.height, self.seed * 1_000 + 10 * c + k
                )
        # Warm-up: every cell once, two levels lower, on other seeds.
        for c, cell in enumerate(GRID):
            height = cell.height - 2
            leaves = leaves_for(cell, height, self.seed + WARMUP_SEED + c)
            cell.solve(fresh(cell, leaves, height))

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase(seconds=0.0, attempted=0, data=[])
        results: List[Tuple[int, int, Tuple[float, int, int]]] = phase.data
        # Instance-major order spreads each cell's solves over the
        # whole pass, so a slow moment of the host hits every cell alike.
        order = sorted(self.instances, key=lambda ck: (ck[1], ck[0]))
        deadline = phase.open() + seconds
        passes = 0
        while passes == 0 or now() < deadline:
            for c, k in order:
                if passes > 0 and now() >= deadline:
                    break
                cell = GRID[c]
                collect_garbage()
                gauge_due()
                tree = fresh(cell, self.instances[(c, k)])
                phase.attempted += 1
                begin = now()
                if tracer is None:
                    result = guarded(phase, cell.name,
                                     lambda: cell.solve(tree))
                else:
                    result = guarded(phase, cell.name, lambda: tracer.call(
                        cell.solve, f"solve:{cell.name}", "core", tree))
                end = now()
                if result is None:
                    continue
                phase.add(cell.name, str(k), begin, end)
                results.append((c, k, outcome(result)))
            if passes == 0:
                first = [r for _c, _k, r in results]
                phase.counts = {
                    "core.steps": float(sum(r[1] for r in first)),
                    "core.work": float(sum(r[2] for r in first)),
                }
                phase.close_window(tracer)
            passes += 1
        phase.close()
        _lat, classes = phase.times(False)
        for cell in GRID:
            if cell.name in classes:
                phase.layer[f"core.cell.{cell.name}_ms"] = class_time(
                    classes[cell.name]
                )
        return phase

    def check(self, phase: Phase) -> List[str]:
        references = self._references
        problems = []
        for c, k, got in phase.data:
            if (c, k) not in references:
                cell = GRID[c]
                references[(c, k)] = outcome(
                    cell.reference(fresh(cell, self.instances[(c, k)]))
                )
            if got != references[(c, k)]:
                problems.append(
                    f"{GRID[c].name}#{k}: got {got}, "
                    f"expected {references[(c, k)]}"
                )
        return problems
