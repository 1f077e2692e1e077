"""Node-expansion versions of Sequential and Parallel alpha-beta.

Section 5 notes that "Sequential alpha-beta and Parallel alpha-beta can
also be converted into their node-expansion versions"; the paper omits
the details for space.  The conversion follows the same recipe as
SOLVE: the pruned tree T-tilde now lives over the generated tree T*,
frontier nodes (live, unexpanded, not pruned) replace unfinished
leaves as the selectable unit, and expansion of a leaf finishes it.
The pruning pass is the leaf-evaluation model's
(:func:`repro.core.alphabeta.engine.prune_to_fixpoint`): it descends
only into touched nodes, and in T* a touched unfinished node is always
an expanded internal node.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from ...errors import ModelViolationError
from ...models.accounting import EvalResult, ExecutionTrace
from ...trees.base import GameTree, NodeId
from ..alphabeta.engine import prune_to_fixpoint
from ..alphabeta.state import PrunedTreeState


class ExpansionAlphaBetaState(PrunedTreeState):
    """T* plus pruned-tree bookkeeping for MIN/MAX node expansion."""

    def __init__(self, tree: GameTree):
        super().__init__(tree)
        self.expanded: Set[NodeId] = set()

    def expand(self, node: NodeId) -> None:
        if node in self.expanded:
            raise ModelViolationError(f"node {node!r} expanded twice")
        self.expanded.add(node)
        if self.tree.is_leaf(node):
            self._mark_touched(node)
            self._finish(node, float(self.tree.leaf_value(node)))


def select_expansion_frontier(
    tree: GameTree, state: ExpansionAlphaBetaState, width: int
) -> List[NodeId]:
    """Frontier nodes of T-tilde over T* with pruning number <= width."""
    out: List[NodeId] = []
    root = tree.root
    if state.is_finished(root) or root in state.pruned:
        return out
    stack = [(root, width)]
    while stack:
        node, budget = stack.pop()
        if node not in state.expanded:
            out.append(node)
            continue
        frames = []
        unfinished_seen = 0
        for child in tree.children(node):
            if child in state.pruned or child in state.finished_value:
                continue
            remaining = budget - unfinished_seen
            if remaining < 0:
                break
            frames.append((child, remaining))
            unfinished_seen += 1
        stack.extend(reversed(frames))
    return out


class NAlphaBetaWidthPolicy:
    """N-Parallel alpha-beta of width w (w = 0: N-Sequential)."""

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be >= 0")
        self.width = width
        self.name = f"n-parallel-alpha-beta(w={width})"

    def __call__(self, tree: GameTree, state: ExpansionAlphaBetaState):
        return select_expansion_frontier(tree, state, self.width)


def run_expansion_minmax(
    tree: GameTree,
    policy: Callable[[GameTree, ExpansionAlphaBetaState], List[NodeId]],
    *,
    keep_batches: bool = False,
    on_step=None,
    max_steps: Optional[int] = None,
) -> EvalResult:
    """Run a node-expansion alpha-beta policy; return value and trace."""
    state = ExpansionAlphaBetaState(tree)
    trace = ExecutionTrace(keep_batches=keep_batches)
    expanded_order: List[NodeId] = []
    root = tree.root

    step = 0
    while not state.is_finished(root):
        batch = policy(tree, state)
        if not batch:
            raise ModelViolationError(
                f"policy {getattr(policy, 'name', policy)!r} selected no "
                f"frontier nodes while the root is unfinished"
            )
        for node in batch:
            state.expand(node)
        prune_to_fixpoint(state)
        trace.record(batch)
        expanded_order.extend(batch)
        if on_step is not None:
            on_step(state, step, batch)
        step += 1
        if max_steps is not None and step > max_steps:
            raise ModelViolationError(f"exceeded {max_steps} steps")

    return EvalResult(state.finished_value[root], trace, expanded_order)


def n_sequential_alpha_beta(tree: GameTree, **kw) -> EvalResult:
    """N-Sequential alpha-beta: expand the leftmost frontier node."""
    return run_expansion_minmax(tree, NAlphaBetaWidthPolicy(0), **kw)


def n_parallel_alpha_beta(
    tree: GameTree, width: int = 1, **kw
) -> EvalResult:
    """N-Parallel alpha-beta of the given width."""
    return run_expansion_minmax(tree, NAlphaBetaWidthPolicy(width), **kw)
