"""Pure statistics helpers: percentiles, tail choice, geomean, self time.

Kept free of clocks and of the ``repro`` package so the unit tests in
``perfbench/tests`` exercise them on hand-made inputs.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TAIL_CANDIDATES",
    "beyond",
    "class_time",
    "geomean",
    "percentile",
    "self_times",
    "tail_quantile",
]

#: Tail quantiles tried from the highest down.
TAIL_CANDIDATES = (0.99, 0.95, 0.90)

#: Samples a tail quantile must leave beyond it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (any order).

    The smallest sample with at least ``q * n`` samples at or below
    it; so the 0.5-quantile of ``[1, 2, 3, 4]`` is 2.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def tail_quantile(n: int) -> Optional[float]:
    """The highest of p99/p95/p90 leaving >= 10 of ``n`` samples beyond it.

    ``None`` when even p90 leaves fewer than ten (``n < 100``).
    """
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = []
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean needs positive values, got {value}")
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


def class_time(samples: Mapping[str, Sequence[float]]) -> float:
    """One class's operation time: the mean over its instances of each
    instance's median time.

    ``samples`` maps an instance label to that instance's repeated
    solve times.  Taking the median per instance first keeps one slow
    repeat from moving the class; averaging across instances keeps
    every instance's weight equal.
    """
    if not samples:
        raise ValueError("class with no instances")
    return sum(median(times) for times in samples.values()) / len(samples)


#: One span as the self-time computation sees it:
#: (layer, start, end, parent index or -1).
SpanTuple = Tuple[str, float, float, int]


def self_times(
    spans: Sequence[SpanTuple], wall_start: float, wall_end: float
) -> Tuple[Dict[str, float], float]:
    """Per-layer self time and the wall time no span covers.

    A span's self time is its duration minus the durations of its
    direct children (children nest inside their parent, as spans from
    one thread's call stack do).  Every span's time is then counted
    exactly once, so the layer self times plus the uncovered time sum
    to ``wall_end - wall_start``.
    """
    child_time: List[float] = [0.0] * len(spans)
    top_level = 0.0
    for layer, start, end, parent in spans:
        if parent < 0:
            top_level += end - start
        else:
            child_time[parent] += end - start
    per_layer: Dict[str, float] = {}
    for i, (layer, start, end, _parent) in enumerate(spans):
        per_layer[layer] = per_layer.get(layer, 0.0) + (
            end - start - child_time[i]
        )
    return per_layer, (wall_end - wall_start) - top_level
