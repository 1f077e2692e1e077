"""serve-cold and serve-hot: wire requests through ``Gateway.step``.

Requests enter as wire dicts (the JSON form of
:func:`repro.serve.request.request_to_dict`) on a logical arrival
schedule from :func:`repro.gateway.open_loop_arrivals`.  Each tick the
benchmark decodes that tick's arrivals with
:func:`repro.serve.request.request_from_dict` and feeds them to
:meth:`repro.gateway.Gateway.step`.  A request's latency runs from the
start of its decode to the end of the step that emitted its outcome.

Decoding per request gives every request a fresh tree object, so the
per-instance ``canonical_hash`` memo never carries over between
requests, as it would not for real traffic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.gateway import (
    PRIORITIES,
    Gateway,
    GatewayConfig,
    GatewayRequest,
    open_loop_arrivals,
)
from repro.serve import request_key, run_algorithm
from repro.serve.request import request_from_dict, request_to_dict
from repro.trees.io import tree_to_dict

from .catalog import ALGOS
from .clock import gauge_due, now
from .harness import Phase, Workload
from .stats import percentile, tail_quantile
from .trace import Tracer

__all__ = ["ServeWorkload", "ServeShape", "COLD", "HOT"]


@dataclass(frozen=True)
class ServeShape:
    """The traffic one serve workload sends."""

    name: str
    height: int
    #: requests in the stream; a run stops early if it runs out, unless
    #: ``replay``.
    requests: int
    #: tree pool size; ``None`` gives every request its own tree.
    trees: Optional[int]
    zipf_s: float
    #: mean arrivals per logical tick; below the gateway's capacity.
    rate: float
    #: the first ``window`` timed arrivals bound the exact-count window.
    window: int
    #: arrivals served untimed first, on the same gateway, so the timed
    #: phase sees the cache a long-running service has.
    prefill: int = 0
    #: the timed phase replays the stream, lap after lap, instead of
    #: running out; only for a stream whose trees repeat anyway, where
    #: a replayed lap is the same traffic.
    replay: bool = False


#: Almost every key unique: engines do the work, the cache none.
#: Capacity is 8 requests per 1 + 8 ticks, so 0.5/tick is ~56% load.
#: At the fastest host speed seen (560 req/s) an 18 s run needs 10,000
#: requests; the stream has room to spare.
COLD = ServeShape("serve-cold", height=8, requests=16000, trees=None,
                  zipf_s=0.0, rate=0.5, window=400)
#: A few dozen trees at zipf 1.2: nearly every request is a cache hit.
#: Capacity is ~8 requests per tick once warm, so 4/tick is ~50% load;
#: the prefill absorbs the cold-cache backlog a fresh gateway builds.
#: A run serves ~100k requests; generating them all would make set-up
#: ~4x longer, so the stream is replayed.
HOT = ServeShape("serve-hot", height=6, requests=40000, trees=32,
                 zipf_s=1.2, rate=4.0, window=4000, prefill=4000,
                 replay=True)

#: The warm-up stream's seed offset (data the timed phase never sees).
WARMUP_SEED = 7_919_000
WARMUP_REQUESTS = 160

#: Bounded queues and deadlines large enough that a run below capacity
#: never sheds; overload behaviour is bench e26's job.
NO_SHED_QUEUES = {name: 1_000_000 for name in PRIORITIES}
NO_DEADLINE = {name: 1_000_000_000 for name in PRIORITIES}

#: One shard, a serial pool, an unbounded cache.
GATEWAY = GatewayConfig(
    num_shards=1, cache_size=None, queue_capacities=NO_SHED_QUEUES
)

#: One scheduled arrival: (tick, priority, deadline, wire dict).
Arrival = Tuple[int, str, int, Dict[str, Any]]


def encode(shape: ServeShape, seed: int, count: int) -> List[Arrival]:
    """The arrival schedule with every request in wire form."""
    arrivals = open_loop_arrivals(
        count,
        seed=seed,
        rate=shape.rate,
        zipf_s=shape.zipf_s,
        num_trees=shape.trees if shape.trees is not None else count,
        branching=2,
        height=shape.height,
        deadlines=NO_DEADLINE,
    )
    # Requests over one pool tree share its encoded tree dict, as a
    # parsed payload would hold equal content; decode still builds a
    # fresh tree object per request.
    # (Trees hash by identity, so the dict finds the pool object.)
    tree_wire: Dict[object, Dict[str, Any]] = {}
    schedule: List[Arrival] = []
    for tick, greq in arrivals:
        req = greq.request
        tree = tree_wire.get(req.tree)
        if tree is None:
            tree = tree_to_dict(req.tree)
            tree_wire[req.tree] = tree
        wire = {
            "id": req.request_id,
            "algo": req.algo,
            "params": dict(req.params),
            "tree": tree,
        }
        schedule.append((tick, greq.priority, greq.deadline, wire))
    if schedule and schedule[0][3] != request_to_dict(arrivals[0][1].request):
        raise AssertionError("wire encoding drifted from request_to_dict")
    # laps() and the check find a request's wire by its id.
    if any(wire["id"] != i for i, (_t, _p, _d, wire) in enumerate(schedule)):
        raise AssertionError("stream request ids are not stream positions")
    return schedule


def laps(schedule: List[Arrival]) -> Iterator[Arrival]:
    """``schedule`` over and over; each lap starts the tick after the
    previous one ended, and numbers its requests after the previous
    lap's (stream request ids are ``0 .. len(schedule) - 1``)."""
    span = schedule[-1][0] + 1
    for lap in itertools.count():
        shift = lap * span
        for tick, priority, due, wire in schedule:
            if lap:
                wire = {**wire, "id": wire["id"] + lap * len(schedule)}
            yield tick + shift, priority, due + shift, wire


@dataclass(frozen=True)
class _Counters:
    """The gateway and service counters a count window differences."""

    rounds: int
    rejected: int
    hits: int
    misses: int
    evaluated: int
    deduplicated: int

    @classmethod
    def read(cls, gateway: Gateway) -> "_Counters":
        stats = gateway.service.stats
        return cls(
            gateway.stats.dispatch_rounds, gateway.stats.total_rejected,
            stats.cache.hits, stats.cache.misses, stats.evaluated,
            stats.deduplicated,
        )

    def minus(self, other: "_Counters") -> "_Counters":
        return _Counters(*(
            getattr(self, f) - getattr(other, f)
            for f in ("rounds", "rejected", "hits", "misses", "evaluated",
                      "deduplicated")
        ))


@dataclass
class _Served:
    """Per-request records of one phase, for the correctness check."""

    #: request id -> (key, value, steps, work) of ok outcomes.
    answers: Dict[int, Tuple[str, float, int, int]]


class ServeWorkload(Workload):
    operation = "request"

    def __init__(self, seed: int, shape: ServeShape) -> None:
        super().__init__(seed)
        self.shape = shape
        self.name = shape.name
        self.schedule: List[Arrival] = []
        self._references: Dict[Tuple[int, str, Tuple[Any, ...]], Tuple] = {}

    def setup(self) -> None:
        self.schedule = encode(self.shape, self.seed, self.shape.requests)
        warm = encode(self.shape, self.seed + WARMUP_SEED, WARMUP_REQUESTS)
        self._serve([], iter(warm), float("inf"), None)

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        prefill = self.shape.prefill
        timed: Iterator[Arrival]
        if self.shape.replay:
            timed = itertools.islice(laps(self.schedule), prefill, None)
        else:
            timed = iter(self.schedule[prefill:])
        return self._serve(self.schedule[:prefill], timed, seconds, tracer)

    # -- the timed loop -----------------------------------------------------
    def _serve(
        self,
        prefill: List[Arrival],
        timed: Iterator[Arrival],
        seconds: float,
        tracer: Optional[Tracer],
    ) -> Phase:
        """One phase on a fresh gateway: untimed prefill, then timed."""
        with Gateway(GATEWAY) as gateway:
            if prefill:
                self._drive(gateway, iter(prefill), float("inf"), None)
            return self._drive(gateway, timed, seconds, tracer)

    def _drive(
        self,
        gateway: Gateway,
        schedule: Iterator[Arrival],
        seconds: float,
        tracer: Optional[Tracer],
    ) -> Phase:
        """Feed ``schedule`` tick by tick until it ends or time is up,
        then step until every admitted request has an outcome."""
        first = next(schedule)
        # Arrival ticks are shifted to start at the gateway's clock.
        offset = gateway.tick - first[0]
        upcoming: Optional[Arrival] = first
        #: the tick of the arrival just past the count window.
        window_tick: Optional[int] = None
        #: request id -> (decode start, algorithm) until its outcome.
        decoded_at: Dict[int, Tuple[float, str]] = {}
        admitted_at: Dict[int, float] = {}
        answers: Dict[int, Tuple[str, float, int, int]] = {}
        phase = Phase(seconds=0.0, attempted=0, data=_Served(answers))
        base = _Counters.read(gateway)
        max_depth = 0
        seen = len(gateway.outcomes)
        if tracer is not None:
            phase.first_span = len(tracer.spans)
        deadline = phase.open() + seconds
        while True:
            gauge_due()
            feeding = upcoming is not None and now() < deadline
            if not feeding and gateway.pending() == 0:
                break
            arrivals = []
            tick = gateway.tick
            while feeding and upcoming is not None and (
                upcoming[0] + offset == tick
            ):
                _tick, priority, due, wire = upcoming
                upcoming = next(schedule, None)
                if phase.attempted + len(arrivals) == self.shape.window:
                    window_tick = tick
                begin = now()
                if tracer is None:
                    req = request_from_dict(wire)
                else:
                    req = tracer.call(
                        request_from_dict, "request_from_dict", "trees",
                        wire, req=(wire["id"],),
                    )
                decoded_at[req.request_id] = (begin, req.algo)
                arrivals.append(GatewayRequest(
                    request=req, priority=priority, arrival=tick,
                    deadline=due + offset,
                ))
            phase.attempted += len(arrivals)
            # The gateway's queue depth right after this tick's admission.
            max_depth = max(max_depth, gateway.pending() + len(arrivals))
            if tracer is not None:
                stepped = now()
                for greq in arrivals:
                    admitted_at[greq.request.request_id] = stepped
            gateway.step(arrivals)
            done = now()
            for outcome in gateway.outcomes[seen:]:
                rid = outcome.request_id
                if outcome.status != "ok":
                    phase.failures.append(
                        f"request {rid} {outcome.status}: {outcome.reason}"
                    )
                    continue
                begin, algo = decoded_at.pop(rid)
                phase.add(algo, "all", begin, done)
                answers[rid] = (
                    str(outcome.key), float(outcome.value or 0.0),
                    int(outcome.steps or 0), int(outcome.work or 0),
                )
                if tracer is not None:
                    tracer.interval("request", begin, done, rid)
            seen = len(gateway.outcomes)
            if tick == window_tick or (
                not feeding and not phase.counts and gateway.pending() == 0
            ):
                self._snapshot(phase, gateway, base, max_depth, answers, tracer)
        phase.close()
        if tracer is not None:
            self._queue_waits(phase, tracer, admitted_at)
        return phase

    @staticmethod
    def _snapshot(
        phase: Phase,
        gateway: Gateway,
        base: "_Counters",
        max_depth: int,
        answers: Dict[int, Tuple[str, float, int, int]],
        tracer: Optional[Tracer],
    ) -> None:
        """Exact counts from the phase start to the window's last tick."""
        delta = _Counters.read(gateway).minus(base)
        distinct: Dict[str, Tuple[int, int]] = {}
        for key, _value, steps, work in answers.values():
            distinct.setdefault(key, (steps, work))
        lookups = delta.hits + delta.misses
        phase.counts = {
            "gateway.rounds": float(delta.rounds),
            "gateway.rejected": float(delta.rejected),
            "gateway.max_queue_depth": float(max_depth),
            "serve.cache_hit_rate": delta.hits / lookups if lookups else 0.0,
            "serve.evaluated": float(delta.evaluated),
            "serve.deduplicated": float(delta.deduplicated),
            "core.steps": float(sum(s for s, _w in distinct.values())),
            "core.work": float(sum(w for _s, w in distinct.values())),
        }
        phase.close_window(tracer)

    @staticmethod
    def _queue_waits(
        phase: Phase, tracer: Tracer, admitted_at: Dict[int, float]
    ) -> None:
        """Admission -> start of the dispatch round that served it."""
        waits: List[float] = []
        for name, _layer, start, _end, _parent, req in tracer.spans:
            if name != "ShardedBatchService.serve" or req is None:
                continue
            for rid in req:
                if rid in admitted_at:
                    waits.append(1e3 * (start - admitted_at[rid]))
                    tracer.interval("queue", admitted_at[rid], start, rid)
        if waits:
            q = tail_quantile(len(waits)) or 0.9
            phase.layer["gateway.queue_wait_p50_ms"] = percentile(waits, 0.5)
            phase.layer["gateway.queue_wait_tail_ms"] = percentile(waits, q)

    # -- checking -------------------------------------------------------------
    def check(self, phase: Phase) -> List[str]:
        served: _Served = phase.data
        problems: List[str] = []
        for rid, answer in sorted(served.answers.items()):
            expected = self._reference(self.schedule[rid % len(self.schedule)][3])
            if answer != expected:
                problems.append(
                    f"request {rid}: got {answer}, expected {expected}"
                )
        return problems

    def _reference(self, wire: Dict[str, Any]) -> Tuple[str, float, int, int]:
        """Key and direct ``run_algorithm`` answer, computed once per
        (tree, algorithm, parameters)."""
        memo = (
            id(wire["tree"]), wire["algo"],
            tuple(sorted(wire["params"].items())),
        )
        if memo not in self._references:
            req = request_from_dict(wire)
            value, steps, work = run_algorithm(
                req.algo, req.tree, req.params_dict()
            )
            self._references[memo] = (
                request_key(req), float(value), int(steps), int(work),
            )
        return self._references[memo]

    # -- per-layer ----------------------------------------------------------
    def layer_metrics(self, phase: Phase, tracer: Tracer) -> Dict[str, float]:
        d = tracer.durations(phase.first_span)
        requests = max(len(phase.latencies_ms), 1)
        serve_s = sum(d.get("ShardedBatchService.serve", [])) or 1.0
        steps = sum(d.get("Gateway.step", []))
        nested = serve_s + sum(d.get("ShardedBatchService.probe_shard", []))
        engines = [k for k in d if k.startswith("run_algorithm:")]
        out = {
            "gateway.self_us_per_req": 1e6 * (steps - nested) / requests,
            "serve.cache_us_per_req": 1e6 * (
                sum(d.get("ResultCache.get", []))
                + sum(d.get("ResultCache.put", []))
            ) / requests,
            "trees.decode_us_per_req": 1e6 * (
                sum(d.get("request_from_dict", []))
                + sum(d.get("tree_from_dict", []))
            ) / requests,
            "trees.hash_us_per_req": 1e6 * sum(d.get("request_key", []))
            / requests,
            "trees.hash_share": sum(d.get("request_key", [])) / serve_s,
            "core.engine_share": sum(sum(d[k]) for k in engines) / serve_s,
        }
        rounds = d.get("ShardedBatchService.serve", [])
        if rounds:
            out["serve.round_p50_ms"] = 1e3 * percentile(rounds, 0.5)
        self_s, _uncovered = tracer.layer_self_times(
            phase.first_span, phase.start, phase.end
        )
        out["serve.self_share"] = self_s["serve"] / serve_s
        for algo in ALGOS:
            times = d.get(f"run_algorithm:{algo}")
            if times:
                out[f"core.algo.{algo}_p50_ms"] = 1e3 * percentile(times, 0.5)
        machine = d.get("run_algorithm:machine")
        if machine:
            out["simulator.machine_p50_ms"] = 1e3 * percentile(machine, 0.5)
        return out
