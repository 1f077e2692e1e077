"""Pruned-tree state for the alpha-beta pruning process (Section 4).

The paper's general method maintains a *pruned tree* T-tilde, obtained
from the input tree by deleting subtrees, with the invariant that the
root value of T-tilde equals the root value of T (Theorem 2).  A node
is *finished* when every leaf of its pruned subtree has been evaluated;
finished nodes have a value in T-tilde.  Unfinished nodes may be
*pruned* (deleted) when their alpha-bound meets their beta-bound.

:class:`PrunedTreeState` tracks finishes, prunes and the cascades
between them, for both the leaf-evaluation model
(:class:`AlphaBetaState`) and the node-expansion model
(:class:`~repro.core.nodeexpansion.ExpansionAlphaBetaState`):

* finishing the last unfinished (non-pruned) child of a node finishes
  the node with the MAX/MIN of its remaining children's values;
* pruning a child removes it from the node's unfinished count and can
  therefore also finish the node.

Bounds themselves are computed top-down by the engine's pruning pass;
the state only stores what is monotone (finished values, pruned flags)
plus the two pieces of bookkeeping that let the pass skip subtrees
that cannot have changed (``dirty`` and ``window_in``, see
:func:`repro.core.alphabeta.engine.prune_pass`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ...errors import ModelViolationError, PruningInvariantError
from ...trees.base import GameTree, NodeId
from ...types import NodeType

#: The (alpha, beta) bounds a prune pass hands down to a node.
Window = Tuple[float, float]


class PrunedTreeState:
    """Finishes, prunes and their cascades over a MIN/MAX tree."""

    def __init__(self, tree: GameTree):
        self.tree = tree
        #: value of each finished node in the pruned tree.
        self.finished_value: Dict[NodeId, float] = {}
        #: nodes deleted by the pruning rule (subtree roots).
        self.pruned: Set[NodeId] = set()
        #: nodes with at least one evaluated leaf in their subtree; the
        #: pruning pass only needs to descend into these.
        self.touched: Set[NodeId] = set()
        #: parents of nodes finished since the last prune pass began.
        self.dirty: Set[NodeId] = set()
        #: the window each node received on its last prune-pass visit.
        self.window_in: Dict[NodeId, Window] = {}
        self._unfinished_children: Dict[NodeId, int] = {}
        self._observers: List[Callable[[NodeId], None]] = []

    def subscribe(self, on_settled: Callable[[NodeId], None]) -> None:
        """Call ``on_settled(node)`` whenever a node finishes or is pruned.

        Fired immediately after the transition is recorded and before
        the cascade reaches the parent, so observers always see
        children settle before their ancestors.  A node settles at most
        once (finished and pruned are mutually exclusive).
        """
        self._observers.append(on_settled)

    def is_finished(self, node: NodeId) -> bool:
        return node in self.finished_value

    def prune(self, node: NodeId) -> None:
        """Delete unfinished ``node`` from T-tilde; cascade to the parent."""
        if node in self.pruned:
            return
        if node in self.finished_value:
            raise ModelViolationError(
                f"pruning rule applies only to unfinished nodes: {node!r}"
            )
        self.pruned.add(node)
        for notify in self._observers:
            notify(node)
        parent = self.tree.parent(node)
        if parent is not None:
            self._child_settled(parent)

    # -- internals -----------------------------------------------------------
    def _mark_touched(self, node: NodeId) -> None:
        for anc in self.tree.ancestors(node):
            if anc in self.touched:
                break
            self.touched.add(anc)

    def _finish(self, node: NodeId, val: float) -> None:
        if node in self.finished_value:
            return
        self.finished_value[node] = val
        for notify in self._observers:
            notify(node)
        parent = self.tree.parent(node)
        if parent is not None:
            self.dirty.add(parent)
            self._child_settled(parent)

    def _child_settled(self, node: NodeId) -> None:
        """A child of ``node`` was finished or pruned; update the count."""
        if node in self.finished_value or node in self.pruned:
            return
        remaining = self._unfinished_children.get(node)
        if remaining is None:
            remaining = self.tree.arity(node)
        remaining -= 1
        self._unfinished_children[node] = remaining
        if remaining > 0:
            return
        vals = [
            self.finished_value[c]
            for c in self.tree.children(node)
            if c not in self.pruned
        ]
        if not vals:
            raise PruningInvariantError(
                f"every child of {node!r} was pruned while {node!r} "
                f"survived — the pruning pass violated top-down order"
            )
        if self.tree.node_type(node) is NodeType.MAX:
            self._finish(node, max(vals))
        else:
            self._finish(node, min(vals))


class AlphaBetaState(PrunedTreeState):
    """Evaluation state of the pruning process over a MIN/MAX tree."""

    def __init__(self, tree: GameTree):
        super().__init__(tree)
        #: leaves that have been evaluated.
        self.evaluated: Set[NodeId] = set()

    # -- queries ----------------------------------------------------------
    def is_pruned_here(self, node: NodeId) -> bool:
        """Whether ``node`` itself carries a pruned flag."""
        return node in self.pruned

    def in_pruned_tree(self, node: NodeId) -> bool:
        """Whether ``node`` is still part of T-tilde (no pruned ancestor)."""
        for anc in self.tree.ancestors(node):
            if anc in self.pruned:
                return False
        return True

    def root_value(self) -> Optional[float]:
        return self.finished_value.get(self.tree.root)

    def pruning_number(self, leaf: NodeId) -> int:
        """Unfinished left-siblings of the ancestors of ``leaf`` in T-tilde.

        Reference implementation used for cross-checking the budgeted
        selection DFS.
        """
        count = 0
        for anc in self.tree.ancestors(leaf):
            for sib in self.tree.left_siblings(anc):
                if sib not in self.pruned and sib not in self.finished_value:
                    count += 1
        return count

    # -- updates ------------------------------------------------------------
    def finish_leaf(self, leaf: NodeId) -> float:
        """Evaluate ``leaf``, finishing it, and cascade finishes upward."""
        if leaf in self.evaluated:
            raise ModelViolationError(f"leaf {leaf!r} evaluated twice")
        if not self.tree.is_leaf(leaf):
            raise ModelViolationError(f"{leaf!r} is not a leaf")
        self.evaluated.add(leaf)
        val = float(self.tree.leaf_value(leaf))
        self._mark_touched(leaf)
        self._finish(leaf, val)
        return val
