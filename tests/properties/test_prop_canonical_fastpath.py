"""Differential properties: uniform-tree template encoding vs the walk.

``canonical_encoding`` encodes a :class:`UniformTree` from a per-shape
template; ``reference_encoding`` walks any tree node by node.  The two
must agree byte for byte, because the encoding is the serve cache key.
"""

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees import UniformTree, canonical_encoding, canonical_hash
from repro.trees.canonical import reference_encoding
from repro.trees.io import tree_from_dict, tree_to_dict
from repro.types import Gate, TreeKind

#: MIN/MAX leaf values whose ``repr`` tokens a value-level shortcut
#: would get wrong: signed zeros (equal, distinct tokens), NaNs of
#: either sign, infinities, subnormals and an inexact decimal.
SPECIAL_FLOATS = [
    0.0,
    -0.0,
    float("nan"),
    float(np.copysign(np.nan, -1.0)),
    float("inf"),
    float("-inf"),
    5e-324,
    -2.5e-310,
    0.1,
]


@st.composite
def uniform_trees(draw):
    kind = draw(st.sampled_from([TreeKind.BOOLEAN, TreeKind.MINMAX]))
    branching = draw(st.integers(min_value=1, max_value=4))
    height = draw(st.integers(min_value=0, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = branching ** height
    if kind is TreeKind.BOOLEAN:
        dtype = draw(st.sampled_from([np.int8, np.int64, np.bool_]))
        leaves = rng.integers(0, 2, size=size).astype(dtype)
        cycle = draw(st.lists(st.sampled_from(list(Gate)),
                              min_size=1, max_size=3))
        return UniformTree(branching, height, leaves, gates=cycle)
    palette = SPECIAL_FLOATS + draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True),
        min_size=1, max_size=8,
    ))
    leaves = np.asarray(palette)[rng.integers(0, len(palette), size=size)]
    return UniformTree(branching, height, leaves, kind=TreeKind.MINMAX)


def _wire_round_trip(tree):
    return tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))))


@settings(max_examples=150, deadline=None)
@given(uniform_trees())
def test_template_encoding_matches_reference_walk(tree):
    expected = reference_encoding(tree)
    for copy in (tree, _wire_round_trip(tree)):
        assert canonical_encoding(copy) == expected
        assert canonical_hash(copy) == hashlib.sha256(expected).hexdigest()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
def test_every_special_float_keeps_its_own_token(branching, height, rnd):
    size = branching ** height
    leaves = [rnd.choice(SPECIAL_FLOATS) for _ in range(size)]
    tree = UniformTree(branching, height, leaves, kind=TreeKind.MINMAX)
    encoding = canonical_encoding(tree)
    assert encoding == reference_encoding(tree)
    tokens = [t[1:] for t in encoding.decode().split("|")
              if t.startswith("L")]
    assert tokens == [repr(v) for v in leaves]
