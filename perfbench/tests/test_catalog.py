"""BENCHMARK.json and the metric catalog name the same metrics."""

import json
from pathlib import Path

from perfbench.catalog import END_TO_END, PER_LAYER

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_end_to_end_metrics_match():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert listed == END_TO_END


def test_per_layer_metrics_match():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == PER_LAYER


def test_workloads_are_the_runnable_ones():
    from perfbench.run import WORKLOADS

    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
