"""Typed errors at the wire-decode boundary.

Malformed request and tree dicts raise :class:`WireFormatError`
subclasses that name the offending field, and still subclass the
builtin the bare lookup used to raise.
"""

import pickle

import pytest

from repro.errors import (
    MissingFieldError,
    ReproError,
    UnknownAlgorithmError,
    UnknownGateError,
    UnknownTreeKindError,
    WireFormatError,
)
from repro.serve import EvalRequest
from repro.serve.request import request_from_dict, request_to_dict
from repro.serve.engines import evaluate_payload, run_algorithm
from repro.trees import ExplicitTree, UniformTree
from repro.trees.io import tree_from_dict, tree_to_dict


def _request_dict():
    return request_to_dict(
        EvalRequest.make(7, "sequential", UniformTree(2, 2, [0, 1, 1, 0]))
    )


def _raises(error, builtin, field, call, *args):
    with pytest.raises(error) as info:
        call(*args)
    exc = info.value
    assert isinstance(exc, WireFormatError)
    assert isinstance(exc, ReproError) and isinstance(exc, builtin)
    assert exc.field == field
    assert repr(field) in str(exc)
    return exc


def test_unknown_gate_name():
    data = _request_dict()
    data["tree"]["gates"] = ["XOR"]
    exc = _raises(
        UnknownGateError, KeyError, "gates", request_from_dict, data
    )
    assert "'XOR'" in str(exc)


def test_unknown_gate_name_in_explicit_tree():
    data = tree_to_dict(ExplicitTree.from_nested([0, 1]))
    data["gates"] = ["NOT", None, None]
    _raises(UnknownGateError, KeyError, "gates", tree_from_dict, data)


def test_unknown_tree_kind():
    data = _request_dict()
    data["tree"]["kind"] = "fuzzy"
    exc = _raises(
        UnknownTreeKindError, ValueError, "kind", request_from_dict, data
    )
    assert "'fuzzy'" in str(exc)


@pytest.mark.parametrize("field", ["tree", "id"])
def test_missing_request_field(field):
    data = _request_dict()
    del data[field]
    _raises(MissingFieldError, KeyError, field, request_from_dict, data)


def test_missing_tree_field():
    data = _request_dict()
    del data["tree"]["leaves"]
    _raises(MissingFieldError, KeyError, "leaves", request_from_dict, data)


def test_unknown_algorithm():
    tree = UniformTree(2, 1, [0, 1])
    exc = _raises(
        UnknownAlgorithmError, KeyError, "algo",
        run_algorithm, "quantum", tree, {},
    )
    assert "'quantum'" in str(exc)


def test_unknown_algorithm_in_worker_payload():
    data = _request_dict()
    del data["id"]
    data["algo"] = "quantum"
    _raises(
        UnknownAlgorithmError, KeyError, "algo", evaluate_payload, data
    )


def test_typed_errors_survive_pickling():
    # Worker processes ship exceptions back pickled.
    exc = UnknownAlgorithmError("unknown algorithm 'x'", field="algo")
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is UnknownAlgorithmError
    assert clone.field == "algo"
    assert str(clone) == str(exc)
