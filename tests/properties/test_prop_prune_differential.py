"""Differential property: event-driven prune pass == full reference pass.

:func:`~repro.core.alphabeta.engine.prune_pass` re-walks only root
paths to nodes finished since the last pass and subtrees whose incoming
window changed; :func:`~repro.core.alphabeta.engine.reference_prune_pass`
walks every touched node of T-tilde.  Two states are driven in lockstep
— one per pass — and must make the same ``prune`` calls, in the same
order, with the same per-pass counts, in both the leaf-evaluation and
the node-expansion model.  Leaves are tied integers plus NaN and signed
zeros, the values that stress ``>=`` ties and window equality.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabeta import (
    AlphaBetaState,
    prune_pass,
    reference_prune_pass,
    select_unfinished_by_pruning_number,
)
from repro.core.nodeexpansion import (
    ExpansionAlphaBetaState,
    select_expansion_frontier,
)
from repro.trees import ExplicitTree, UniformTree
from repro.types import TreeKind

SPECIALS = (math.nan, 0.0, -0.0)


def _leaf_values(num_values):
    return st.sampled_from(
        tuple(float(v) for v in range(num_values)) + SPECIALS
    )


@st.composite
def uniform_trees(draw):
    branching = draw(st.integers(min_value=2, max_value=3))
    height = draw(st.integers(min_value=1, max_value=5))
    num_values = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = np.array(
        [float(v) for v in range(num_values)] + list(SPECIALS)
    )
    leaves = pool[rng.integers(0, len(pool), size=branching ** height)]
    return UniformTree(branching, height, leaves, kind=TreeKind.MINMAX)


@st.composite
def explicit_trees(draw):
    num_values = draw(st.integers(min_value=2, max_value=8))
    spec = draw(st.recursive(
        _leaf_values(num_values),
        lambda children: st.lists(children, min_size=1, max_size=4),
        max_leaves=30,
    ))
    if not isinstance(spec, list):
        spec = [spec]
    return ExplicitTree.from_nested(spec, kind=TreeKind.MINMAX)


TREES = st.one_of(uniform_trees(), explicit_trees())
WIDTHS = st.integers(min_value=0, max_value=3)


def _log_prunes(state):
    """Record every ``prune`` call the pass makes, in order."""
    log = []
    original = state.prune

    def prune(node):
        log.append(node)
        original(node)

    state.prune = prune
    return log


def _fixpoint(state, one_pass):
    counts = []
    while True:
        counts.append(one_pass(state))
        if counts[-1] == 0:
            return counts


def _same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class _Lockstep:
    """One state per pass, advanced by the same batches."""

    def __init__(self, make_state, tree):
        self.tree = tree
        self.fast, self.ref = make_state(tree), make_state(tree)
        self.fast_log = _log_prunes(self.fast)
        self.ref_log = _log_prunes(self.ref)
        self.counts = []

    def step(self, settle, batch):
        for node in batch:
            settle(self.fast, node)
            settle(self.ref, node)
        fast = _fixpoint(self.fast, prune_pass)
        assert fast == _fixpoint(self.ref, reference_prune_pass)
        assert self.fast_log == self.ref_log
        assert self.fast.pruned == self.ref.pruned
        assert self.fast.finished_value.keys() \
            == self.ref.finished_value.keys()
        self.counts.append(fast)

    def done(self):
        root = self.tree.root
        if not self.fast.is_finished(root):
            return False
        assert _same_value(
            self.fast.finished_value[root], self.ref.finished_value[root]
        )
        return True


def _run_policy(make_state, select, settle, tree, width):
    run = _Lockstep(make_state, tree)
    while not run.done():
        batch = select(tree, run.fast, width)
        assert batch == select(tree, run.ref, width)
        run.step(settle, batch)
    return run


@settings(max_examples=150, deadline=None)
@given(TREES, WIDTHS)
def test_leaf_model_prunes_match_reference(tree, width):
    run = _run_policy(
        AlphaBetaState, select_unfinished_by_pruning_number,
        AlphaBetaState.finish_leaf, tree, width,
    )
    assert run.counts


@settings(max_examples=150, deadline=None)
@given(TREES, WIDTHS)
def test_expansion_model_prunes_match_reference(tree, width):
    run = _run_policy(
        ExpansionAlphaBetaState, select_expansion_frontier,
        ExpansionAlphaBetaState.expand, tree, width,
    )
    assert run.counts


@settings(max_examples=100, deadline=None)
@given(TREES, st.data())
def test_hand_driven_finishes_match_reference(tree, data):
    """Leaves finished in an arbitrary order, a few per fixpoint."""
    run = _Lockstep(AlphaBetaState, tree)
    leaves = data.draw(st.permutations(list(tree.iter_leaves())))
    pending = list(leaves)
    while pending and not run.done():
        take = data.draw(st.integers(min_value=1, max_value=4))
        batch = [
            leaf for leaf in pending[:take]
            if run.fast.in_pruned_tree(leaf)
        ]
        del pending[:take]
        run.step(AlphaBetaState.finish_leaf, batch)
