"""Unit tests for the sharded batch service: dedup, routing, failover."""

import pytest

from repro.errors import BackendUnsupportedError, DegradedRunError
from repro.serve import (
    EvalRequest,
    ShardedBatchService,
    make_tree_pool,
    request_key,
    run_algorithm,
    shard_of,
    synthetic_stream,
)
from repro.telemetry import InMemoryRecorder
from repro.trees import ExplicitTree, UniformTree, exact_value
from repro.trees.generators import iid_boolean


def _bool_requests(n, seed=11, height=3):
    pool = make_tree_pool(
        4, seed=seed, height=height, minmax_fraction=0.0,
    )
    return synthetic_stream(
        n, seed=seed, pool=pool, algos=["sequential"],
    )


def _always_crash(payload):
    raise RuntimeError("injected shard failure")


def test_responses_align_with_requests_and_are_correct():
    requests = _bool_requests(10)
    with ShardedBatchService(2) as service:
        responses = service.serve(requests)
    assert [r.request_id for r in responses] == [
        req.request_id for req in requests
    ]
    for req, resp in zip(requests, responses):
        assert resp.algo == req.algo
        assert resp.value == float(exact_value(req.tree))
        direct = run_algorithm(req.algo, req.tree, req.params_dict())
        assert (resp.value, resp.steps, resp.work) == (
            float(direct[0]), direct[1], direct[2]
        )


def test_in_batch_dedup_evaluates_each_unique_key_once():
    tree = iid_boolean(2, 3, 0.5, seed=5)
    requests = [
        EvalRequest.make(i, "sequential", tree) for i in range(6)
    ]
    with ShardedBatchService(1) as service:
        responses = service.serve(requests)
    assert service.stats.evaluated == 1
    assert service.stats.deduplicated == 5
    assert len({r.key for r in responses}) == 1
    assert len({(r.value, r.steps, r.work) for r in responses}) == 1


def test_representation_equal_trees_share_one_key():
    uniform = UniformTree(2, 2, [0, 1, 1, 0])
    explicit = ExplicitTree.from_nested([[0, 1], [1, 0]])
    a = EvalRequest.make(0, "sequential", uniform)
    b = EvalRequest.make(1, "sequential", explicit)
    assert request_key(a) == request_key(b)
    with ShardedBatchService(1) as service:
        service.serve([a, b])
    assert service.stats.evaluated == 1
    assert service.stats.deduplicated == 1


def test_params_distinguish_keys():
    tree = iid_boolean(2, 3, 0.5, seed=5)
    a = EvalRequest.make(0, "parallel", tree, width=1)
    b = EvalRequest.make(1, "parallel", tree, width=2)
    assert request_key(a) != request_key(b)


def test_cache_answers_repeat_batches():
    requests = _bool_requests(8)
    with ShardedBatchService(2, cache_size=None) as service:
        first = service.serve(requests)
        evaluated_once = service.stats.evaluated
        second = service.serve(requests)
    assert service.stats.evaluated == evaluated_once  # nothing recomputed
    assert service.stats.cache.hits == evaluated_once
    assert [
        (r.key, r.value, r.steps, r.work) for r in first
    ] == [(r.key, r.value, r.steps, r.work) for r in second]


def test_disabled_cache_recomputes_every_batch():
    requests = _bool_requests(8)
    with ShardedBatchService(2, cache_size=0) as service:
        service.serve(requests)
        evaluated_once = service.stats.evaluated
        service.serve(requests)
    assert service.stats.evaluated == 2 * evaluated_once
    assert service.stats.cache.hits == 0


def test_requests_route_to_their_key_shard():
    requests = _bool_requests(12, seed=3)
    rec = InMemoryRecorder()
    with ShardedBatchService(3, recorder=rec) as service:
        service.serve(requests)
    expected = [0, 0, 0]
    for key in {request_key(req) for req in requests}:
        expected[shard_of(key, 3)] += 1
    for shard in range(3):
        counted = rec.metrics.counters.get(
            f"serve.shard.{shard}.requests", 0
        )
        assert counted == expected[shard]


def test_failover_answers_the_whole_batch():
    requests = _bool_requests(16, seed=7)
    num_shards = 3
    crash_shard = shard_of(request_key(requests[0]), num_shards)
    routed_to_crash = len({
        key for key in (request_key(r) for r in requests)
        if shard_of(key, num_shards) == crash_shard
    })
    rec = InMemoryRecorder()

    def oracle_for_shard(shard):
        from repro.serve.engines import evaluate_payload
        return _always_crash if shard == crash_shard else evaluate_payload

    with ShardedBatchService(
        num_shards, oracle_for_shard=oracle_for_shard, recorder=rec,
    ) as service:
        responses = service.serve(requests)
    assert service.degraded_shards == [crash_shard]
    assert service.stats.failovers == routed_to_crash
    for req, resp in zip(requests, responses):
        assert resp.value == float(exact_value(req.tree))
    degraded = [
        e for e in rec.events
        if e.kind == "instant" and e.name == "serve.shard_degraded"
    ]
    assert len(degraded) == 1
    assert degraded[0].track == f"serve-shard-{crash_shard}"
    assert rec.metrics.counters["serve.failover.requests"] == routed_to_crash
    assert rec.metrics.counters["serve.failover.recovered"] == routed_to_crash


def test_all_shards_degraded_raises():
    requests = _bool_requests(4)
    with ShardedBatchService(
        2, oracle_for_shard=lambda shard: _always_crash,
    ) as service:
        with pytest.raises(DegradedRunError):
            service.serve(requests)


def test_degraded_shard_stays_out_of_later_batches():
    requests = _bool_requests(16, seed=7)
    num_shards = 2
    crash_shard = shard_of(request_key(requests[0]), num_shards)

    def oracle_for_shard(shard):
        from repro.serve.engines import evaluate_payload
        return _always_crash if shard == crash_shard else evaluate_payload

    with ShardedBatchService(
        num_shards, cache_size=0, oracle_for_shard=oracle_for_shard,
    ) as service:
        service.serve(requests)
        assert service.degraded_shards == [crash_shard]
        responses = service.serve(requests)  # no new degradations
    assert service.degraded_shards == [crash_shard]
    for req, resp in zip(requests, responses):
        assert resp.value == float(exact_value(req.tree))


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        ShardedBatchService(0)
    with pytest.raises(ValueError):
        ShardedBatchService(1, pool="bogus")


def test_nparallel_passes_backend_through():
    tree = iid_boolean(2, 4, 0.4, seed=3)
    with pytest.raises(BackendUnsupportedError) as info:
        run_algorithm("nparallel", tree, {"width": 1, "backend": "arena"})
    assert info.value.engine == "n-parallel-solve"
    assert run_algorithm(
        "nparallel", tree, {"width": 1, "backend": "rescan"}
    ) == run_algorithm("nparallel", tree, {"width": 1})
