"""Canonical hashing and semantic equality of trees."""

import pytest

from repro.serve import EvalRequest, request_key
from repro.trees import (
    ExplicitTree,
    LazyTree,
    PermutedTree,
    UniformTree,
    canonical_encoding,
    canonical_hash,
    trees_equal,
)
from repro.trees import canonical
from repro.trees.canonical import reference_encoding
from repro.trees.generators import iid_boolean, iid_minmax
from repro.types import Gate, TreeKind


def _explicit_copy(tree):
    """Rebuild any tree as an ExplicitTree with fresh ids."""
    n = tree.num_nodes()
    order = list(tree.iter_nodes())
    index = {node: i for i, node in enumerate(order)}
    children = [
        [index[c] for c in tree.children(node)] for node in order
    ]
    leaves = {
        index[node]: tree.leaf_value(node)
        for node in order
        if tree.is_leaf(node)
    }
    gates = None
    if tree.kind is TreeKind.BOOLEAN:
        gates = {
            index[node]: tree.gate(node)
            for node in order
            if not tree.is_leaf(node)
        }
    assert len(children) == n
    return ExplicitTree(children, leaves, kind=tree.kind, gates=gates)


def test_hash_is_representation_invariant():
    # Each uniform tree takes the per-shape template path and its
    # explicit copy the reference walk, so this checks the two paths
    # against each other.
    uniforms = [
        iid_boolean(2, 4, 0.5, seed=3),
        iid_minmax(3, 3, seed=4),
        UniformTree(
            2, 5, [(i * 7 + i // 5) % 2 for i in range(32)],
            gates=[Gate.OR, Gate.NAND, Gate.AND],
        ),
        UniformTree(
            3, 3, [(i * i) % 2 for i in range(27)],
            gates=[Gate.AND, Gate.OR],
        ),
    ]
    for uniform in uniforms:
        explicit = _explicit_copy(uniform)
        assert canonical_hash(uniform) == canonical_hash(explicit)
        assert trees_equal(uniform, explicit)


#: Literal SHA-256 digests of the canonical encoding.  The encoding is
#: the serve cache-key contract: changing any of these invalidates
#: every persisted key, shard assignment and response log.
PINNED_TREES = {
    "nor_d2_n6": (
        lambda: UniformTree(
            2, 6, [(i * 5 + i // 3) % 2 for i in range(64)]
        ),
        "aecec2607591b89568c62cf1104c691bc5a62ea609424ee552ae725e6be8d92f",
    ),
    "gate_cycle_d3_n3": (
        lambda: UniformTree(
            3, 3, [(i * i + 1) % 3 % 2 for i in range(27)],
            gates=[Gate.NAND, Gate.OR, Gate.AND],
        ),
        "46fabe92dfd2d83746e366013cca0b9315442f8400fdbdf11e45a4f6eb629e37",
    ),
    "minmax_d3_n2": (
        lambda: UniformTree(
            3, 2,
            [-3.0, -0.0, 0.0, 0.1, 2.5, 1e17, -1.5e17,
             123456789012345680.0, -7.25],
            kind=TreeKind.MINMAX,
        ),
        "99d5183d808ac2d41ac550eabe204a342ca49c96a3e15bd31b692ac0f0b03d5e",
    ),
    "height_0": (
        lambda: UniformTree(2, 0, [1]),
        "4bff45154d91128483d13ac9acf20faff66a725a3735ae5dad69ce6199319eb1",
    ),
    "branching_1": (
        lambda: UniformTree(1, 4, [0.5], kind=TreeKind.MINMAX),
        "41ac1f74fd31f06a8ed4e2dd383fc46e5dd4fac20f010601e1daa801ea9686af",
    ),
    "explicit_irregular": (
        lambda: ExplicitTree.from_nested(
            [[0, 1, 1], 0, [[1], [0, 1]]], gates=Gate.NAND
        ),
        "6adeaaffa766a4ec58add447ee21e67c2dc9ecb8bf91040643345ec45f5e8f1b",
    ),
}


def test_hash_is_stable_across_calls():
    for name, (build, digest) in PINNED_TREES.items():
        tree = build()
        assert canonical_hash(tree) == digest, name
        # Memoised on the instance; a fresh object recomputes the same.
        assert canonical_hash(tree) == digest, name
        assert canonical_hash(build()) == digest, name


def test_request_keys_are_pinned():
    nor = PINNED_TREES["nor_d2_n6"][0]()
    minmax = PINNED_TREES["minmax_d3_n2"][0]()
    assert request_key(EvalRequest.make(1, "sequential", nor)) == (
        "44922c7a54e913f31b2451c032c79e9753d8905478c6ddedc6dbd13203f38de4"
    )
    assert request_key(
        EvalRequest.make(2, "parallel_ab", minmax, width=2)
    ) == (
        "84a4868de65635afa07e0477ca195c23aa58795b7b498ae170f394971fca44b9"
    )


def test_signed_zeros_keep_distinct_tokens():
    tree = UniformTree(2, 1, [0.0, -0.0], kind=TreeKind.MINMAX)
    assert canonical_encoding(tree) == b"minmax|N2|L0.0|L-0.0"
    flipped = UniformTree(2, 1, [-0.0, 0.0], kind=TreeKind.MINMAX)
    assert canonical_hash(tree) != canonical_hash(flipped)


def test_non_uniform_trees_take_the_reference_walk(monkeypatch):
    def refuse(tree):
        raise AssertionError("uniform fast path used")

    monkeypatch.setattr(canonical, "_uniform_encoding", refuse)
    base = iid_boolean(2, 3, 0.5, seed=1)
    for tree in (_explicit_copy(base), PermutedTree(base, seed=2)):
        assert canonical_encoding(tree) == reference_encoding(tree)


def test_oversized_uniform_shapes_bypass_the_shape_cache(monkeypatch):
    monkeypatch.setattr(canonical, "_SHAPE_CACHE_MAX_LEAVES", 4)
    canonical._cached_separators.cache_clear()
    canonical._cached_byte_template.cache_clear()
    for tree in (
        iid_boolean(2, 4, 0.5, seed=5),
        iid_minmax(2, 4, seed=5),
        UniformTree(2, 2, [1, 0, 0, 1]),
    ):
        assert canonical_encoding(tree) == reference_encoding(tree)
    # Only the 4-leaf tree fits under the cap.
    assert canonical._cached_separators.cache_info().currsize == 1
    assert canonical._cached_byte_template.cache_info().currsize == 1


def test_leaf_value_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], [1, 1]])
    b = ExplicitTree.from_nested([[0, 1], [1, 0]])
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_structure_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], 1])
    b = ExplicitTree.from_nested([0, [1, 1]])
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_gate_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], [1, 1]], gates=Gate.NOR)
    b = ExplicitTree.from_nested([[0, 1], [1, 1]], gates=Gate.AND)
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_kind_changes_hash():
    a = ExplicitTree.from_nested([[0, 1], [1, 1]])
    b = ExplicitTree.from_nested(
        [[0.0, 1.0], [1.0, 1.0]], kind=TreeKind.MINMAX
    )
    assert canonical_hash(a) != canonical_hash(b)
    assert not trees_equal(a, b)


def test_minmax_float_values_encoded_exactly():
    a = ExplicitTree.from_nested([0.1, 0.2], kind=TreeKind.MINMAX)
    b = ExplicitTree.from_nested(
        [0.1, 0.2 + 1e-12], kind=TreeKind.MINMAX
    )
    assert canonical_hash(a) != canonical_hash(b)


def test_lazy_tree_hashes_like_its_materialisation():
    def expand(payload, depth):
        if depth == 2:
            return ("leaf", payload % 2)
        return ("internal", [payload * 2, payload * 2 + 1])

    lazy = LazyTree(1, expand, kind=TreeKind.BOOLEAN)
    explicit = ExplicitTree.from_nested([[0, 1], [0, 1]])
    assert canonical_hash(lazy) == canonical_hash(explicit)
    assert trees_equal(lazy, explicit)


def test_single_leaf_trees():
    a = UniformTree(2, 0, [1])
    b = ExplicitTree([()], {0: 1})
    assert canonical_hash(a) == canonical_hash(b)
    assert trees_equal(a, b)


def test_encoding_is_bytes_and_prefix_tagged():
    tree = ExplicitTree.from_nested([0, 1])
    enc = canonical_encoding(tree)
    assert isinstance(enc, bytes)
    assert enc.startswith(b"boolean")


@pytest.mark.parametrize("seed", range(5))
def test_distinct_random_instances_hash_distinct(seed):
    a = iid_boolean(2, 4, 0.5, seed=seed)
    b = iid_boolean(2, 4, 0.5, seed=seed + 100)
    if trees_equal(a, b):  # pragma: no cover - astronomically unlikely
        assert canonical_hash(a) == canonical_hash(b)
    else:
        assert canonical_hash(a) != canonical_hash(b)
