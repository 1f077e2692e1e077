"""Serialization of tree instances.

Benchmark ensembles are regenerable from seeds, but a library user who
finds an interesting instance (a Prop-5 counterexample, a hard game
position) needs to save it.  Uniform trees serialise to ``.npz``
(parameters + the leaf array); explicit trees to JSON-compatible dicts.
Round-trips preserve structure, values, kind and gate assignment.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Union

import numpy as np

from ..errors import (
    MissingFieldError,
    TreeStructureError,
    UnknownGateError,
    UnknownTreeKindError,
)
from ..types import Gate, TreeKind
from .explicit import ExplicitTree
from .gates import GateScheme
from .uniform import UniformTree


def require_field(data: Mapping[str, Any], name: str, what: str) -> Any:
    """``data[name]``, or a :class:`MissingFieldError` naming the field."""
    try:
        return data[name]
    except KeyError:
        raise MissingFieldError(
            f"{what} dict is missing required field {name!r}", field=name
        ) from None


def _gate(name: Any) -> Gate:
    try:
        return Gate[str(name)]
    except KeyError:
        raise UnknownGateError(
            f"unknown gate {name!r} in field 'gates'; expected one of "
            f"{[g.name for g in Gate]}",
            field="gates",
        ) from None


def _kind(raw: Any) -> TreeKind:
    try:
        return TreeKind(raw)
    except ValueError:
        raise UnknownTreeKindError(
            f"unknown tree kind {raw!r} in field 'kind'; expected one of "
            f"{[k.value for k in TreeKind]}",
            field="kind",
        ) from None


def save_uniform(tree: UniformTree, path: str) -> None:
    """Write a uniform tree to an ``.npz`` file."""
    gates = [g.name for g in tree._scheme.cycle]
    np.savez_compressed(
        path,
        branching=tree.branching,
        height=tree.height(),
        kind=tree.kind.value,
        gates=np.array(gates),
        leaves=tree.leaf_values_array,
    )


def load_uniform(path: str) -> UniformTree:
    """Read a uniform tree written by :func:`save_uniform`."""
    with np.load(path, allow_pickle=False) as data:
        kind = _kind(str(data["kind"]))
        gates = GateScheme([_gate(g) for g in data["gates"]])
        return UniformTree(
            int(data["branching"]),
            int(data["height"]),
            data["leaves"],
            kind=kind,
            gates=gates if kind is TreeKind.BOOLEAN else None,
        )


def uniform_to_dict(tree: UniformTree) -> Dict[str, Any]:
    """JSON-compatible representation of a uniform tree."""
    return {
        "repr": "uniform",
        "kind": tree.kind.value,
        "branching": tree.branching,
        "height": tree.height(),
        "gates": [g.name for g in tree._scheme.cycle],
        "leaves": tree.leaf_values_array.tolist(),
    }


def uniform_from_dict(data: Dict[str, Any]) -> UniformTree:
    """Inverse of :func:`uniform_to_dict`."""
    kind = _kind(require_field(data, "kind", "tree"))
    gates = GateScheme(
        [_gate(name) for name in require_field(data, "gates", "tree")]
    )
    return UniformTree(
        int(require_field(data, "branching", "tree")),
        int(require_field(data, "height", "tree")),
        np.asarray(require_field(data, "leaves", "tree")),
        kind=kind,
        gates=gates if kind is TreeKind.BOOLEAN else None,
    )


def explicit_to_dict(tree: ExplicitTree) -> Dict[str, Any]:
    """JSON-compatible representation of an explicit tree."""
    n = tree.num_nodes()
    gates = None
    if tree.kind is TreeKind.BOOLEAN:
        gates = [
            None if tree.is_leaf(i) else tree.gate(i).name
            for i in range(n)
        ]
    return {
        "kind": tree.kind.value,
        "children": [list(tree.children(i)) for i in range(n)],
        "leaf_values": {
            str(i): tree.leaf_value(i)
            for i in range(n)
            if tree.is_leaf(i)
        },
        "gates": gates,
    }


def explicit_from_dict(data: Dict[str, Any]) -> ExplicitTree:
    """Inverse of :func:`explicit_to_dict`."""
    kind = _kind(require_field(data, "kind", "tree"))
    leaf_values = {
        int(k): v
        for k, v in require_field(data, "leaf_values", "tree").items()
    }
    gates = None
    if kind is TreeKind.BOOLEAN:
        raw = data.get("gates")
        if raw is None:
            raise TreeStructureError("Boolean tree dict must carry gates")
        gates = {
            i: _gate(name) for i, name in enumerate(raw) if name is not None
        }
    return ExplicitTree(
        require_field(data, "children", "tree"),
        leaf_values,
        kind=kind,
        gates=gates,
    )


def save_explicit(tree: ExplicitTree, path: str) -> None:
    """Write an explicit tree to a JSON file."""
    with open(path, "w") as fh:
        json.dump(explicit_to_dict(tree), fh)


def load_explicit(path: str) -> ExplicitTree:
    """Read an explicit tree written by :func:`save_explicit`."""
    with open(path) as fh:
        return explicit_from_dict(json.load(fh))


def tree_to_dict(tree: Union[UniformTree, ExplicitTree]) -> Dict[str, Any]:
    """Representation-tagged dict for either concrete tree type.

    The ``"repr"`` key selects the decoder in :func:`tree_from_dict`;
    explicit-tree dicts from older callers (no tag) still decode.  The
    dict is JSON- *and* pickle-friendly, which is what lets the serve
    layer ship whole evaluation requests to worker processes.
    """
    if isinstance(tree, UniformTree):
        return uniform_to_dict(tree)
    if isinstance(tree, ExplicitTree):
        return {"repr": "explicit", **explicit_to_dict(tree)}
    raise TreeStructureError(
        f"cannot serialise {type(tree).__name__}; materialise lazy "
        f"trees first"
    )


def tree_from_dict(data: Dict[str, Any]) -> Union[UniformTree, ExplicitTree]:
    """Inverse of :func:`tree_to_dict` (dispatch on the ``repr`` tag)."""
    tag = data.get("repr", "explicit")
    if tag == "uniform":
        return uniform_from_dict(data)
    if tag == "explicit":
        return explicit_from_dict(data)
    raise TreeStructureError(f"unknown tree representation {tag!r}")


def save_tree(tree: Union[UniformTree, ExplicitTree], path: str) -> None:
    """Dispatch on tree type: ``.npz`` for uniform, JSON otherwise."""
    if isinstance(tree, UniformTree):
        save_uniform(tree, path)
    elif isinstance(tree, ExplicitTree):
        save_explicit(tree, path)
    else:
        raise TreeStructureError(
            f"cannot serialise {type(tree).__name__}; materialise lazy "
            f"trees first"
        )
