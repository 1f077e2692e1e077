"""Unit tests for span recording, patching and the Chrome export."""

import types

import pytest

from perfbench.trace import LAYERS, Tracer


def _module():
    mod = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod.leaf = leaf
    mod.outer = outer
    return mod


def test_patch_nests_spans_and_restores():
    mod = _module()
    original_leaf = mod.leaf
    tracer = Tracer()
    tracer.patch(mod, "outer", lambda args: ("outer", "serve"),
                 req_of=lambda args: (args[0],))
    tracer.patch(mod, "leaf", lambda args: ("leaf", "core"))
    assert mod.outer(3) == 8
    tracer.restore()
    assert mod.leaf is original_leaf
    assert mod.outer(3) == 8
    assert len(tracer.spans) == 2
    (n0, l0, s0, e0, p0, r0), (n1, l1, s1, e1, p1, r1) = tracer.spans
    assert (n0, l0, p0, r0) == ("outer", "serve", -1, (3,))
    assert (n1, l1, p1, r1) == ("leaf", "core", 0, None)
    assert s0 <= s1 <= e1 <= e0


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call(boom, "boom", "core")
    assert tracer.spans[0][3] >= tracer.spans[0][2]
    tracer.call(lambda: None, "after", "core")
    assert tracer.spans[1][4] == -1


def test_layer_self_times_cover_the_wall():
    mod = _module()
    tracer = Tracer()
    tracer.patch(mod, "outer", lambda args: ("outer", "serve"))
    tracer.patch(mod, "leaf", lambda args: ("leaf", "core"))
    from perfbench.clock import now

    start = now()
    for i in range(50):
        mod.outer(i)
    end = now()
    tracer.restore()
    per_layer, uncovered = tracer.layer_self_times(0, start, end)
    assert set(per_layer) == set(LAYERS)
    assert per_layer["serve"] > 0 and per_layer["core"] > 0
    assert uncovered >= 0
    assert sum(per_layer.values()) + uncovered == pytest.approx(end - start)
    # Counting from a later span leaves the earlier ones uncovered.
    later, rest = tracer.layer_self_times(2, tracer.spans[2][2], end)
    assert sum(later.values()) + rest == pytest.approx(end - tracer.spans[2][2])


def test_chrome_export_validates_and_inherits_request_ids():
    from repro.telemetry.export import validate_chrome_trace

    mod = _module()
    tracer = Tracer()
    tracer.patch(mod, "outer", lambda args: ("outer", "gateway"),
                 req_of=lambda args: (args[0],))
    tracer.patch(mod, "leaf", lambda args: ("leaf", "trees"))
    mod.outer(7)
    tracer.restore()
    tracer.interval("request", tracer.spans[0][2], tracer.spans[0][3], 7)
    doc = tracer.chrome(origin=tracer.spans[0][2])
    assert validate_chrome_trace(doc) == []
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["args"]["req"] for e in spans] == [[7], [7], [7]]
    assert spans[1]["args"]["parent"] == 0


def test_instrument_restores_every_library_entry_point():
    from repro.gateway import gateway as gateway_mod
    from repro.serve import engines, service

    before = (gateway_mod.Gateway.step, engines.run_algorithm,
              service.request_key)
    tracer = Tracer()
    with tracer.instrument():
        assert engines.run_algorithm is not before[1]
    assert (gateway_mod.Gateway.step, engines.run_algorithm,
            service.request_key) == before
