"""Every metric the benchmark reports: name, unit and direction.

``BENCHMARK.json`` lists the same names; ``tests/test_catalog.py``
keeps the two in step.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.serve import ALGORITHMS

__all__ = [
    "ALGOS",
    "CELLS",
    "END_TO_END",
    "PER_LAYER",
]

#: The wire algorithms timed by ``core.algo.*``; ``machine`` is the
#: simulator layer's.
ALGOS = tuple(name for name in ALGORITHMS if name != "machine")

#: solve-grid cell names, in run order.
CELLS = (
    "parallel_w1_d5n7", "parallel_w4_d5n7", "bounded_w4p2_d4n8",
    "team_p4_d5n7", "sequential_d2n12", "parallel_w1_d2n12",
    "alphabeta_w1_d5n6", "alphabeta_w4_d5n6", "sequential_ab_d5n6",
)

#: (name, unit, better)
Metric = Tuple[str, str, str]

END_TO_END: List[Metric] = [
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("geomean_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

PER_LAYER: List[Metric] = (
    [
        ("gateway.queue_wait_p50_ms", "ms", "lower"),
        ("gateway.queue_wait_tail_ms", "ms", "lower"),
        ("gateway.self_us_per_req", "us", "lower"),
        ("gateway.rounds", "count", "lower"),
        ("gateway.rejected", "count", "lower"),
        ("gateway.max_queue_depth", "count", "lower"),
        ("serve.round_p50_ms", "ms", "lower"),
        ("serve.cache_us_per_req", "us", "lower"),
        ("serve.self_share", "ratio", "lower"),
        ("serve.cache_hit_rate", "ratio", "higher"),
        ("serve.evaluated", "count", "lower"),
        ("serve.deduplicated", "count", "higher"),
        ("trees.decode_us_per_req", "us", "lower"),
        ("trees.hash_us_per_req", "us", "lower"),
        ("trees.hash_share", "ratio", "lower"),
        ("trees.lowering_ms", "ms", "lower"),
        ("trees.lowering_calls", "count", "lower"),
        ("core.engine_share", "ratio", "higher"),
    ]
    + [(f"core.algo.{algo}_p50_ms", "ms", "lower") for algo in ALGOS]
    + [(f"core.cell.{cell}_ms", "ms", "lower") for cell in CELLS]
    + [
        ("core.steps", "count", "lower"),
        ("core.work", "count", "lower"),
        ("simulator.machine_p50_ms", "ms", "lower"),
        ("executors.busy_ms_per_solve", "ms", "lower"),
        ("executors.overhead_ms_per_solve", "ms", "lower"),
        ("executors.session_setup_ms", "ms", "lower"),
        ("executors.batches", "count", "lower"),
        ("executors.chunks", "count", "lower"),
        ("executors.retries", "count", "lower"),
        ("executors.pool_restarts", "count", "lower"),
        ("executors.pool_speedup", "x", "higher"),
    ]
    + [
        (f"selftime.{layer}_share", "ratio",
         "higher" if layer in ("core", "simulator") else "lower")
        for layer in ("gateway", "serve", "trees", "core", "simulator",
                      "executors", "uncovered")
    ]
    + [("trace.overhead", "x", "lower")]
)
