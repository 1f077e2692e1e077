"""leaf-pool: width-1 solves whose leaves cost real time, on worker pools.

Three engines share one instance set of d=3, n=5 trees whose every
leaf evaluation sleeps 0.5 ms (the sleep-mode
:class:`~repro.core.shm.CalibratedOracle`, so the overlap measured is
the executor's, not the host's spare cores):

* ``shm_solve`` / ``shm_alphabeta`` — ``parallel_solve`` and
  ``parallel_alpha_beta`` with ``backend="arena", executor="shm"``; each
  call publishes its tree's segments and starts a pool (``ShmSession``);
* ``runtime_solve`` — ``run_with_oracle`` over one persistent
  :class:`~repro.models.executors.OracleRuntime` pool per worker count,
  started in set-up.

A pass runs the set at 2 workers, then at 1.  References are the
inline arena runs.  Thirty small instances rather than ten large ones:
solve time follows an instance's work, which varies by up to 2x
between instances, so the instance set must be large for a pass to
weigh alike from seed to seed.

The host-speed gauge uses the ``"pool"`` probe: most of a solve is
leaf sleeps and waits on worker processes, and under load a solve
slowed by up to 1.5x while the loop probe slowed by 1.1x; round trips
through a process pool slow with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import parallel_solve
from repro.core.alphabeta import parallel_alpha_beta
from repro.core.policies import WidthPolicy
from repro.core.shm import CalibratedOracle, ShmOptions
from repro.models.executors import OracleRuntime, RuntimeStats
from repro.models.oracle_runner import run_with_oracle
from repro.trees.generators import iid_boolean, iid_minmax
from repro.trees.generators.iid import level_invariant_bias
from repro.trees.uniform import UniformTree

from .clock import gauge_due, now
from .harness import Phase, Workload, collect_garbage, guarded
from .trace import Tracer

__all__ = ["LeafPool", "SleepLeaf"]

BRANCHING = 3
HEIGHT = 5
COST_S = 0.0005
#: Worker counts, in run order.
WORKERS = (2, 1)
INSTANCES = 30
WARMUP_SEED = 7_919_000
ENGINES = ("shm_solve", "shm_alphabeta", "runtime_solve")
EVALUATE_SPANS = ("ShmPool.evaluate_batch", "OracleRuntime.evaluate")
COUNTS = ("batches", "chunks", "retries", "pool_restarts")


@dataclass(frozen=True)
class SleepLeaf:
    """The calibrated leaf cost on ``run_with_oracle``'s one-argument
    payloads (the stored leaf value comes back unchanged)."""

    cost: CalibratedOracle

    def __call__(self, value: Any) -> Any:
        return self.cost(value, 0)


def trees(seed: int, height: int) -> Tuple[UniformTree, UniformTree]:
    """A (Boolean, MIN/MAX) instance pair, fresh objects."""
    return (
        iid_boolean(BRANCHING, height, level_invariant_bias(BRANCHING), seed),
        iid_minmax(BRANCHING, height, seed),
    )


def fresh(tree: UniformTree) -> UniformTree:
    return UniformTree(
        tree.branching, tree.height(), tree.leaf_values_array, kind=tree.kind
    )


def outcome(result: Any) -> Tuple[float, int, int]:
    return float(result.value), int(result.num_steps), int(result.total_work)


@dataclass
class _Record:
    engine: str
    workers: int
    instance: int
    passes: int
    ms: float
    answer: Tuple[float, int, int]


class LeafPool(Workload):
    name = "leaf-pool"
    operation = "solve"
    mixed_classes = True
    gauge = "pool"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instances: List[Tuple[UniformTree, UniformTree]] = []
        self.runtimes: Dict[int, OracleRuntime] = {}
        self.options: Dict[int, ShmOptions] = {}
        self._references: Dict[Tuple[str, int], Tuple[float, int, int]] = {}

    def setup(self) -> None:
        self.instances = [
            trees(self.seed * 1_000 + k, HEIGHT) for k in range(INSTANCES)
        ]
        cost = CalibratedOracle(COST_S, "sleep")
        for p in WORKERS:
            self.options[p] = ShmOptions(oracle=cost, workers=p)
            runtime = OracleRuntime(SleepLeaf(cost), max_workers=p)
            runtime.__enter__()
            self.runtimes[p] = runtime
        # Warm-up: every engine at every worker count on a small
        # instance from another seed; this also starts the pools.
        warm = trees(self.seed + WARMUP_SEED, 3)
        for p in WORKERS:
            for engine in ENGINES:
                self._op(engine, p, warm)()

    def close(self) -> None:
        for runtime in self.runtimes.values():
            runtime.close()
        self.runtimes = {}

    def _op(
        self, engine: str, p: int, pair: Tuple[UniformTree, UniformTree]
    ) -> Callable[[], Any]:
        boolean, minmax = pair
        if engine == "shm_solve":
            return lambda: parallel_solve(
                fresh(boolean), 1, backend="arena", executor="shm",
                shm_options=self.options[p],
            )
        if engine == "shm_alphabeta":
            return lambda: parallel_alpha_beta(
                fresh(minmax), 1, backend="arena", executor="shm",
                shm_options=self.options[p],
            )
        runtime = self.runtimes[p]
        return lambda: run_with_oracle(
            fresh(boolean), runtime.oracle, WidthPolicy(1), runtime=runtime
        )

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        records: List[_Record] = []
        phase = Phase(seconds=0.0, attempted=0, data=records)
        counts = RuntimeStats()
        deadline = phase.open() + seconds
        passes = 0
        while passes == 0 or now() < deadline:
            for p in WORKERS:
                for k, pair in enumerate(self.instances):
                    if passes > 0 and now() >= deadline:
                        break
                    for engine in ENGINES:
                        collect_garbage()
                        gauge_due()
                        op = self._op(engine, p, pair)
                        runtime = self.runtimes[p]
                        before = replace(runtime.stats)
                        phase.attempted += 1
                        begin = now()
                        if tracer is None:
                            result = guarded(phase, engine, op)
                        else:
                            result = guarded(phase, engine, lambda: tracer.call(
                                op, f"solve:{engine}", "core"))
                        end = now()
                        if result is None:
                            continue
                        phase.add(f"{engine}@p{p}", str(k), begin, end)
                        records.append(_Record(
                            engine, p, k, passes, 1e3 * (end - begin),
                            outcome(result)
                        ))
                        if passes == 0:
                            # A shm result carries its one-run pool's
                            # stats; the persistent runtime's accumulate.
                            stats = getattr(result, "stats", None)
                            for name in COUNTS:
                                if stats is not None:
                                    delta = getattr(stats, name)
                                else:
                                    delta = getattr(runtime.stats, name) - (
                                        getattr(before, name)
                                    )
                                setattr(counts, name,
                                        getattr(counts, name) + delta)
            if passes == 0:
                phase.counts = {
                    f"executors.{name}": float(getattr(counts, name))
                    for name in COUNTS
                }
                phase.counts["core.steps"] = float(
                    sum(r.answer[1] for r in records)
                )
                phase.counts["core.work"] = float(
                    sum(r.answer[2] for r in records)
                )
                phase.close_window(tracer)
            passes += 1
        phase.close()
        phase.layer["executors.pool_speedup"] = pool_speedup(records)
        return phase

    def check(self, phase: Phase) -> List[str]:
        problems = []
        for r in phase.data:
            boolean, minmax = self.instances[r.instance]
            key = ("alphabeta" if r.engine == "shm_alphabeta" else "solve",
                   r.instance)
            if key not in self._references:
                self._references[key] = outcome(
                    parallel_alpha_beta(fresh(minmax), 1, backend="arena")
                    if key[0] == "alphabeta"
                    else parallel_solve(fresh(boolean), 1, backend="arena")
                )
            if r.answer != self._references[key]:
                problems.append(
                    f"{r.engine}@p{r.workers}#{r.instance}: got {r.answer}, "
                    f"expected {self._references[key]}"
                )
        return problems

    def layer_metrics(self, phase: Phase, tracer: Tracer) -> Dict[str, float]:
        solves = max(len(phase.data), 1)
        busy = 0.0
        for name, _layer, s, e, parent, _req in tracer.spans[phase.first_span:]:
            if name in EVALUATE_SPANS and (
                parent < 0 or tracer.spans[parent][0] not in EVALUATE_SPANS
            ):
                busy += e - s
        leaf_cost = sum(r.answer[2] * COST_S / r.workers for r in phase.data)
        sessions = tracer.durations(phase.first_span).get(
            "ShmSession.__init__", []
        )
        return {
            "executors.busy_ms_per_solve": 1e3 * busy / solves,
            "executors.overhead_ms_per_solve": 1e3 * (busy - leaf_cost)
            / solves,
            "executors.session_setup_ms": (
                1e3 * sum(sessions) / len(sessions) if sessions else 0.0
            ),
        }


def pool_speedup(records: List[_Record]) -> float:
    """Summed 1-worker time over summed 2-worker time, on the
    (pass, engine, instance) triples run at both counts."""
    by_p: Dict[int, Dict[Tuple[int, str, int], float]] = {1: {}, 2: {}}
    for r in records:
        by_p[r.workers][(r.passes, r.engine, r.instance)] = r.ms
    both = sorted(by_p[1].keys() & by_p[2].keys())
    if not both:
        return 0.0
    return sum(by_p[1][k] for k in both) / sum(by_p[2][k] for k in both)
