"""Step-synchronous engine for the pruning process (Section 4).

A general step consists of

1. a *leaf-evaluation step*: the policy selects unfinished leaves of
   the current pruned tree and all of them are evaluated; then
2. a maximal sequence of free *propagation steps* (finishing nodes whose
   remaining children are finished) and *pruning steps* (deleting
   unfinished nodes whose alpha-bound reaches their beta-bound).

Bounds follow the paper's definitions: the alpha-bound of v is the
largest value among finished siblings of MIN-ancestors of v (v counts
as its own ancestor), the beta-bound the smallest value among finished
siblings of MAX-ancestors.  Since a *finished* sibling of an unfinished
child u of a MAX node x is just a finished child of x, the bounds are
computed in one top-down pass: descending from x into u,

* x MAX:  alpha(u) = max(alpha(x), max value of x's finished children)
* x MIN:  beta(u)  = min(beta(x),  min value of x's finished children)

The pruning pass repeats until fixpoint: pruning a child can finish its
parent, which sharpens bounds elsewhere.  Because bounds only ever
tighten, working with momentarily stale bounds merely delays a prune to
the next round of the fixpoint loop — it never prunes wrongly.

Event-driven passes.  :func:`reference_prune_pass` walks every touched
node of T-tilde on every pass.  :func:`prune_pass` makes the same
``prune`` calls in the same order while visiting only what can have
changed.  The state keeps two things for it:

* ``dirty`` — the parents of nodes finished since the last pass began
  (leaf evaluations and prune cascades alike);
* ``window_in`` — the (alpha, beta) window each node received on its
  last visit.

A pass with no dirty node returns 0 at once.  Otherwise it runs the
reference's right-to-left DFS, but descends into a touched child only
when the child lies on a root path to a dirty node, or when the window
the child now receives differs from ``window_in[child]``.

Why this is exact.  A pass is a pure top-down function of the state at
the start of the pass (see :mod:`repro.core.arena.alphabeta`): the
windows a node's children receive depend only on the node's own window
and its finished children, and a prune changes no window — it deletes
an unfinished node, which contributes no value to any bound.  Only a
finish changes a window, and every finish marks its parent dirty.  So
a skipped child's subtree holds no node that finished since the last
pass began, and it receives the window it was last walked with.  That
walk left the subtree at fixpoint for that window: every node it found
with a closed window had all its unsettled children pruned, and any
finish those prunes cascaded would have made the subtree dirty.  The
reference pass would therefore prune nothing there either.  Windows
compare with ``==``; they never hold NaN (they start at +-inf and are
narrowed by ``max``/``min``, which keep the first operand over a NaN),
and -0.0 == 0.0 compare and prune alike.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Set

from ...errors import ModelViolationError
from ...models.accounting import EvalResult, ExecutionTrace
from ...telemetry import Recorder, live
from ...trees.base import GameTree, NodeId
from ...types import NodeType
from ..frontier import FrontierIndex, _IncrementalPolicy
from .state import AlphaBetaState, PrunedTreeState

#: A selection policy: (tree, state) -> batch of unfinished leaves.
MinmaxPolicy = Callable[[GameTree, AlphaBetaState], List[NodeId]]

#: Per-step hook: (state, step index, batch).
MinmaxStepHook = Callable[[AlphaBetaState, int, List[NodeId]], None]


def prune_to_fixpoint(state: PrunedTreeState) -> int:
    """Apply the pruning rule until nothing more can be deleted.

    Returns the number of nodes pruned.  Cost is not charged to the
    model (pruning and propagation are free).
    """
    total = 0
    while True:
        pruned_now = prune_pass(state)
        total += pruned_now
        if pruned_now == 0:
            return total


def prune_pass(state: PrunedTreeState) -> int:
    """One pruning pass, re-walking only what can have changed.

    Makes exactly the ``prune`` calls of :func:`reference_prune_pass`,
    in the same order (see the module docstring for why).  Returns the
    number of nodes pruned.
    """
    dirty = state.dirty
    if not dirty:
        return 0
    state.dirty = set()
    tree = state.tree
    root = tree.root
    if root in state.finished_value:
        return 0
    # Every node on a root path to a dirty node.
    on_path: Set[NodeId] = set()
    for node in dirty:
        while node is not None and node not in on_path:
            on_path.add(node)
            node = tree.parent(node)
    return _walk(state, on_path)


def reference_prune_pass(state: PrunedTreeState) -> int:
    """One full pruning pass over every touched node of T-tilde.

    The literal top-down reading of the pruning rule; kept as the
    oracle :func:`prune_pass` is tested against.
    """
    root = state.tree.root
    if root in state.finished_value or root not in state.touched:
        return 0
    return _walk(state, None)


def _walk(state: PrunedTreeState, on_path: Optional[Set[NodeId]]) -> int:
    """Right-to-left DFS of T-tilde from the root, pruning on the way.

    At each visited node the window handed to its children is sharpened
    with its finished children's values; a closed window prunes every
    unsettled child, an open one descends into the touched children.
    With ``on_path`` given, only into those on it or whose window
    differs from the one they last received; ``None`` descends into
    all of them.
    """
    tree = state.tree
    finished = state.finished_value
    pruned = state.pruned
    touched = state.touched
    window_in = state.window_in
    count = 0
    stack = [(tree.root, -math.inf, math.inf)]
    while stack:
        node, alpha, beta = stack.pop()
        if node in pruned or node in finished:
            continue  # settled by a cascade after being pushed
        kids = tree.children(node)
        finished_vals = [
            finished[c] for c in kids if c in finished and c not in pruned
        ]
        if tree.node_type(node) is NodeType.MAX:
            alpha = max([alpha] + finished_vals)
        else:
            beta = min([beta] + finished_vals)
        window = (alpha, beta)
        for child in kids:
            if child in pruned or child in finished:
                continue
            if alpha >= beta:
                state.prune(child)
                count += 1
                if node in finished or node in pruned:
                    break  # the prune cascaded; siblings are settled
                continue
            # A touched unsettled node has an evaluated leaf strictly
            # below it, so it is internal (and, in T*, expanded).
            if child in touched and (
                on_path is None or child in on_path
                or window_in.get(child) != window
            ):
                window_in[child] = window
                stack.append((child, alpha, beta))
    return count


def select_unfinished_by_pruning_number(
    tree: GameTree, state: AlphaBetaState, width: int
) -> List[NodeId]:
    """Unfinished leaves of T-tilde with pruning number <= ``width``.

    Same budgeted DFS as the Boolean case, with "determined" replaced by
    "finished" and pruned children excluded from both the walk and the
    sibling counts.
    """
    out: List[NodeId] = []
    root = tree.root
    if state.is_finished(root) or root in state.pruned:
        return out
    stack = [(root, width)]
    while stack:
        node, budget = stack.pop()
        if tree.is_leaf(node):
            out.append(node)
            continue
        frames = []
        unfinished_seen = 0
        for child in tree.children(node):
            if child in state.pruned:
                continue  # not part of T-tilde
            if child in state.finished_value:
                continue  # finished: not an unfinished sibling
            remaining = budget - unfinished_seen
            if remaining < 0:
                break
            frames.append((child, remaining))
            unfinished_seen += 1
        stack.extend(reversed(frames))
    return out


class AlphaBetaWidthPolicy:
    """Parallel alpha-beta of width w (w = 0: Sequential alpha-beta)."""

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be >= 0")
        self.width = width
        self.name = f"parallel-alpha-beta(w={width})"

    def __call__(
        self, tree: GameTree, state: AlphaBetaState
    ) -> List[NodeId]:
        return select_unfinished_by_pruning_number(tree, state, self.width)


class IncrementalAlphaBetaWidthPolicy(_IncrementalPolicy):
    """Width-w alpha-beta selection, incrementally maintained.

    Step-for-step identical to :class:`AlphaBetaWidthPolicy`:
    "settled" is finished-or-pruned, and the state's transition feed
    (finishes *and* prunes, children before parents) keeps the index
    current across the free propagation/pruning cascades.
    """

    def __init__(self, width: int):
        super().__init__()
        if width < 0:
            raise ValueError("width must be >= 0")
        self.width = width
        self.name = f"parallel-alpha-beta(w={width}, incremental)"

    def _bind(self, tree: GameTree, state: object) -> FrontierIndex:
        assert isinstance(state, AlphaBetaState)
        finished = state.finished_value
        pruned = state.pruned

        def settled(node: NodeId) -> bool:
            return node in finished or node in pruned

        idx = FrontierIndex(tree, state, width=self.width, settled=settled)
        state.subscribe(idx.on_settled)
        return idx

    def __call__(
        self, tree: GameTree, state: AlphaBetaState
    ) -> List[NodeId]:
        return self.index_for(tree, state).batch()


def run_minmax(
    tree: GameTree,
    policy: MinmaxPolicy,
    *,
    keep_batches: bool = False,
    on_step: Optional[MinmaxStepHook] = None,
    max_steps: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> EvalResult:
    """Run the pruning process under ``policy``; return value and trace."""
    rec = live(recorder)
    state = AlphaBetaState(tree)
    trace = ExecutionTrace(keep_batches=keep_batches)
    evaluated: List[NodeId] = []
    root = tree.root

    step = 0
    while not state.is_finished(root):
        batch = policy(tree, state)
        if not batch:
            raise ModelViolationError(
                f"policy {getattr(policy, 'name', policy)!r} selected no "
                f"leaves while the root is unfinished"
            )
        for leaf in batch:
            state.finish_leaf(leaf)
        pruned = prune_to_fixpoint(state)
        trace.record(batch)
        evaluated.extend(batch)
        if rec is not None:
            rec.advance(step + 1)
            rec.add_span(
                "step", step, step + 1, track="alphabeta",
                degree=len(batch), pruned=pruned,
            )
            rec.count("alphabeta.leaves_evaluated", len(batch))
            if pruned:
                rec.count("alphabeta.pruned", pruned)
            rec.sample("alphabeta.degree", len(batch), track="alphabeta")
        if on_step is not None:
            on_step(state, step, batch)
        step += 1
        if max_steps is not None and step > max_steps:
            raise ModelViolationError(f"exceeded {max_steps} steps")

    if rec is not None:
        rec.count("alphabeta.steps", step)
        rec.gauge("alphabeta.processors", trace.processors)
    return EvalResult(state.finished_value[root], trace, evaluated)
