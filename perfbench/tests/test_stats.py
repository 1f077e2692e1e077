"""Unit tests for the benchmark's statistics helpers."""

import math

import pytest

from perfbench.stats import (
    beyond,
    class_time,
    geomean,
    percentile,
    self_times,
    tail_quantile,
)


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.5) == 2.0
    assert percentile(values, 0.25) == 1.0
    assert percentile(values, 0.75) == 3.0
    assert percentile(values, 1.0) == 4.0
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 0.99),   # exactly 10 samples above p99
        (999, 0.95),    # p99 leaves 9
        (200, 0.95),
        (199, 0.90),
        (100, 0.90),
        (99, None),     # even p90 leaves 9
        (0, None),
    ],
)
def test_tail_quantile_leaves_ten_samples_beyond(n, expected):
    q = tail_quantile(n)
    assert q == expected
    if q is not None:
        assert beyond(n, q) >= 10


def test_tail_quantile_matches_percentile_rank():
    values = list(range(1, 1001))
    q = tail_quantile(len(values))
    cut = percentile(values, q)
    assert sum(v > cut for v in values) == beyond(len(values), q) == 10


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean(iter([5.0])) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_class_time_averages_instance_medians():
    assert class_time({"a": [1.0, 3.0, 2.0], "b": [10.0]}) == 6.0
    with pytest.raises(ValueError):
        class_time({})


def test_self_times_sum_to_wall():
    spans = [
        ("x", 0.0, 10.0, -1),   # 0: root
        ("y", 2.0, 5.0, 0),     # 1: child of 0
        ("x", 3.0, 4.0, 1),     # 2: child of 1
        ("y", 12.0, 13.0, -1),  # 3: root
    ]
    per_layer, uncovered = self_times(spans, 0.0, 20.0)
    assert per_layer == {"x": pytest.approx(8.0), "y": pytest.approx(3.0)}
    assert uncovered == pytest.approx(9.0)
    assert math.isclose(sum(per_layer.values()) + uncovered, 20.0)


def test_self_times_without_spans_is_all_uncovered():
    assert self_times([], 1.0, 3.0) == ({}, 2.0)
