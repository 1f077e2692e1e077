"""One benchmark run: set up, measure, check, and reduce to metrics.

A workload object builds its inputs from the seed in :meth:`setup`,
runs the timed phase in :meth:`run` and compares every completed
operation against references it computes in :meth:`check`, after the
timed phase and outside ``setup_s``.  :func:`run_workload` drives that
sequence and turns the phases into the end-to-end metrics (untraced
run) or the per-layer metrics (traced run).
"""

from __future__ import annotations

import gc
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from .catalog import PER_LAYER
from .clock import (
    Sample,
    gauge,
    gauging,
    local_speeds,
    now,
    peak_rss_mb,
    speed,
    take_samples,
)
from .stats import class_time, geomean, percentile, tail_quantile
from .trace import LAYERS, Tracer

__all__ = ["Phase", "Report", "Workload", "run_workload", "SETUP_REPEATS"]

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Gauge samples taken after each set-up, for the set-up's host speed.
SETUP_GAUGES = 5


@dataclass
class Phase:
    """What one timed phase produced."""

    #: wall seconds from the first operation to the last completion.
    seconds: float
    #: operations started (requests fed or solve calls made).
    attempted: int
    #: time of every completed operation, in ms.
    latencies_ms: List[float] = field(default_factory=list)
    #: clock time of the middle of each operation, and its (class,
    #: instance), in the order of ``latencies_ms``.
    at: List[float] = field(default_factory=list)
    keys: List[Tuple[str, str]] = field(default_factory=list)
    #: exact counts over the count window; equal for equal seeds.
    counts: Dict[str, float] = field(default_factory=dict)
    #: other per-layer numbers the workload measures without spans.
    layer: Dict[str, float] = field(default_factory=dict)
    #: refused or raising operations, one message each.
    failures: List[str] = field(default_factory=list)
    #: clock readings bracketing the timed part.
    start: float = 0.0
    end: float = 0.0
    #: the gauge samples of the timed part.
    samples: List[Sample] = field(default_factory=list)
    #: the process's peak RSS when the count window closed, in MiB.
    rss_mb: float = 0.0
    #: traced runs: index of the timed part's first span (spans of an
    #: untimed prefill come before it) and the span count when the
    #: count window closed.
    first_span: int = 0
    trace_window: int = 0
    #: workload-private records for :meth:`Workload.check`.
    data: Any = None

    def add(self, cls: str, instance: str, begin: float, end: float) -> None:
        """Record one completed operation that ran from ``begin`` to
        ``end`` (clock times)."""
        self.latencies_ms.append(1e3 * (end - begin))
        self.at.append((begin + end) / 2)
        self.keys.append((cls, instance))

    def open(self) -> float:
        """Start the timed part: a first gauge sample, then the clock."""
        take_samples()
        gauge()
        self.start = now()
        return self.start

    def close(self) -> None:
        """End the timed part with a last gauge sample, and keep the
        samples taken since :meth:`open`."""
        self.end = now()
        self.seconds = self.end - self.start
        gauge()
        self.samples = take_samples()

    def close_window(self, tracer: Optional[Tracer]) -> None:
        """Mark the end of the count window: the span count so far and
        the peak RSS so far.  RSS is read after this fixed amount of
        work, not at the end, because records kept per operation (the
        gateway's outcomes, the answers to check) grow with however
        many operations the run fitted in, which the host sets."""
        self.rss_mb = peak_rss_mb()
        if tracer is not None:
            self.trace_window = len(tracer.spans)

    def scaled_seconds(self) -> float:
        """The timed part's length with each stretch between gauge
        samples scaled by the host speed around it."""
        edges = sorted(
            {self.start, self.end}
            | {t for t, _took in self.samples if self.start < t < self.end}
        )
        spans = list(zip(edges, edges[1:]))
        speeds = local_speeds([(a + b) / 2 for a, b in spans], self.samples)
        return sum((b - a) * s for (a, b), s in zip(spans, speeds))

    def times(
        self, scaled: bool
    ) -> Tuple[List[float], Dict[str, Dict[str, List[float]]]]:
        """``latencies_ms``, and the same times grouped as operation
        class -> instance -> repeated times; if ``scaled``, each time
        is scaled by the host speed around it
        (:func:`clock.local_speeds`)."""
        latencies = self.latencies_ms
        if scaled:
            speeds = local_speeds(self.at, self.samples)
            latencies = [ms * s for ms, s in zip(latencies, speeds)]
        classes: Dict[str, Dict[str, List[float]]] = {}
        for (cls, instance), ms in zip(self.keys, latencies):
            classes.setdefault(cls, {}).setdefault(instance, []).append(ms)
        return latencies, classes


class Workload:
    """Base class: a named workload over inputs made from one seed."""

    name = ""
    #: operation unit of ``throughput_rps`` / ``attempted``.
    operation = "operation"
    #: the gauge probe (:data:`clock.PROBES`) whose speed the
    #: end-to-end times are scaled by: ``"pool"`` when the operations
    #: mostly wait on worker processes, which the loop does not track.
    gauge = "loop"
    #: True when operation classes differ in cost by design (grid cells,
    #: engines x worker counts): latency percentiles are then taken per
    #: class and combined by geometric mean, since a percentile of the
    #: pooled mix jumps between classes from run to run.
    mixed_classes = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Generate inputs, encode them, start pools and warm up."""

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def check(self, phase: Phase) -> List[str]:
        """Messages for every completed operation with a wrong answer."""
        raise NotImplementedError

    def layer_metrics(
        self, phase: Phase, tracer: Tracer
    ) -> Dict[str, float]:
        """Workload-specific per-layer metrics read from the spans."""
        return {}

    def close(self) -> None:
        """Stop every process the workload started."""


def guarded(phase: Phase, what: str, fn: Callable[[], Any]) -> Any:
    """Run one operation; a raise is recorded as a failure, not fatal."""
    try:
        return fn()
    except Exception as exc:  # the benchmark must report, not stop
        phase.failures.append(f"{what}: {type(exc).__name__}: {exc}")
        traceback.print_exc()
        return None


def collect_garbage() -> None:
    """Free the previous solve's reference cycles before the next one.

    Solver states are cyclic; left to the collector's thresholds they
    pile up for a varying number of solves, so peak RSS would depend on
    how many solves a run fitted in.  Collecting between solves (inside
    the phase's wall time, outside each solve's own time) makes
    ``peak_rss_mb`` the largest single solve's working set.
    """
    gc.collect()


@dataclass
class Report:
    """A finished run, ready to print."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]
    details: Dict[str, Any]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


#: The tail quantile of samples too small to leave ten beyond p90
#: (a solve class holds a dozen or so); p90 moves less than the maximum.
SMALL_SAMPLE_TAIL = 0.90


def tail(values: List[float]) -> float:
    """The tail-quantile latency (see :func:`stats.tail_quantile`)."""
    q = tail_quantile(len(values)) or SMALL_SAMPLE_TAIL
    return percentile(values, q)


def rps(phase: Phase, scaled: bool) -> float:
    """Completed operations per second; if ``scaled``, as the
    reference host would have served them."""
    seconds = phase.scaled_seconds() if scaled else phase.seconds
    return len(phase.latencies_ms) / seconds


def end_to_end(
    phase: Phase, setup_s: float, mixed: bool,
    scaled: bool = True,
) -> Dict[str, float]:
    """The end-to-end metrics of one phase; times and rates scaled to
    the reference host unless ``scaled`` is false."""
    lat, classes = phase.times(scaled)
    if mixed:
        pooled = [
            [ms for times in instances.values() for ms in times]
            for instances in classes.values()
        ]
        p50 = geomean(percentile(times, 0.5) for times in pooled)
        high = geomean(tail(times) for times in pooled)
    else:
        p50, high = percentile(lat, 0.5), tail(lat)
    return {
        "setup_s": setup_s,
        "throughput_rps": rps(phase, scaled),
        "latency_p50_ms": p50,
        "latency_tail_ms": high,
        "geomean_ms": geomean(
            class_time(instances) for instances in classes.values()
        ),
        "peak_rss_mb": phase.rss_mb,
    }


def per_layer(
    workload: Workload, plain: List[Phase], traced: Phase, tracer: Tracer
) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced phase's timed part."""
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    wall = traced.end - traced.start
    self_s, uncovered = tracer.layer_self_times(
        traced.first_span, traced.start, traced.end
    )
    for layer in LAYERS:
        out[f"selftime.{layer}_share"] = self_s[layer] / wall
    out["selftime.uncovered_share"] = uncovered / wall
    covered = sum(self_s.values()) + uncovered
    if abs(covered - wall) > 1e-6 * max(wall, 1.0):
        raise AssertionError(
            f"self times + uncovered = {covered} s != wall {wall} s"
        )
    out["trace.overhead"] = (
        sum(rps(p, True) for p in plain) / len(plain)
    ) / rps(traced, True)
    window = tracer.durations(traced.first_span, traced.trace_window)
    out["trees.lowering_calls"] = float(len(window.get("canonical_arrays", [])))
    lowering = tracer.durations(traced.first_span).get("canonical_arrays", [])
    if lowering:
        out["trees.lowering_ms"] = 1e3 * sum(lowering) / len(lowering)
    out.update(traced.counts)
    out.update(traced.layer)
    out.update(workload.layer_metrics(traced, tracer))
    unknown = set(out) - {name for name, _u, _b in PER_LAYER}
    if unknown:
        raise AssertionError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return out


def run_workload(
    factory: Callable[[int], Workload],
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
) -> Report:
    """Set up ``SETUP_REPEATS`` times, measure, check, reduce.

    ``import_s`` is the import time measured just before; the gauge
    samples after each set-up give the host speed ``setup_s`` is
    scaled by.
    """
    setups: List[float] = []
    samples: List[Sample] = []
    workload = factory(seed)
    try:
        with gauging(workload.gauge):
            for repeat in range(SETUP_REPEATS):
                if repeat:
                    workload.close()
                    workload = factory(seed)
                start = now()
                workload.setup()
                setups.append(now() - start)
                take_samples()
                for _ in range(SETUP_GAUGES):
                    gauge()
                samples += take_samples()
            tracer: Optional[Tracer] = None
            if trace:
                # Untraced halves before and after the traced phase, so
                # a drift across the run (first-touch memory, machine
                # load) does not read as tracing overhead.
                before = workload.run(seconds / 2, None)
                tracer = Tracer()
                with tracer.instrument():
                    origin = now()
                    traced = workload.run(seconds, tracer)
                after = workload.run(seconds / 2, None)
                phases = [before, traced, after]
            else:
                phases = [workload.run(seconds, None)]
        problems = [msg for phase in phases for msg in workload.check(phase)]
    finally:
        workload.close()
    failures = [msg for phase in phases for msg in phase.failures]
    attempted = sum(phase.attempted for phase in phases)
    completed = sum(len(phase.latencies_ms) for phase in phases)
    # Refused/raising operations never complete; wrong answers do.
    failed = (attempted - completed) + len(problems)
    setup_s = import_s + median(setups)
    setup_speed = speed(samples)
    last = phases[1] if trace else phases[0]
    details: Dict[str, Any] = {
        "operation": workload.operation,
        "operations": len(last.latencies_ms),
        "attempted_per_phase": [p.attempted for p in phases],
        "phase_seconds": [p.seconds for p in phases],
        "import_s": import_s,
        "setup_repeats_s": setups,
        "gauge": workload.gauge,
        "setup_speed": setup_speed,
        "phase_speed": [speed(p.samples) for p in phases],
        "tail_quantile": (
            {cls: tail_quantile(sum(len(t) for t in inst.values()))
             or SMALL_SAMPLE_TAIL for cls, inst in last.times(False)[1].items()}
            if workload.mixed_classes
            else tail_quantile(len(last.latencies_ms)) or SMALL_SAMPLE_TAIL
        ),
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": (failures + problems)[:20],
    }
    mixed = workload.mixed_classes

    def summary(phase: Phase, scale: bool) -> Dict[str, float]:
        setup = setup_s * setup_speed if scale else setup_s
        return end_to_end(phase, setup, mixed, scale)

    if trace:
        assert tracer is not None
        metrics = per_layer(workload, [phases[0], phases[2]], last, tracer)
        details["end_to_end_untraced"] = [
            summary(phases[i], True) for i in (0, 2)
        ]
        details["end_to_end_traced"] = summary(last, True)
        details["chrome"] = tracer.chrome(origin)
    else:
        metrics = summary(last, True)
    details["end_to_end_unscaled"] = summary(last, False)
    return Report(
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics=metrics,
        details=details,
    )

