"""The benchmark's clock, its host-speed gauge, and process memory.

The hosts this benchmark runs on share their cores: a fixed
pure-Python loop runs up to 1.6x slower in one second than in the
next, and wall and CPU time swing alike, so every timing of the
program swings with it.  The gauge times a fixed probe between
operations, every :data:`GAUGE_INTERVAL_S` of the run, and the
end-to-end times are scaled by how fast the probe ran beside them
(see :func:`speed` and :func:`local_speeds`).  The gauge's own time is
taken off the clock, so no operation's time includes it.

Two probes exist, both independent of the program under test:

* ``"loop"``, a pure-Python loop, for work done in this process;
* ``"pool"``, round trips through a one-worker stdlib process pool
  whose task sleeps like a leaf evaluation, for work that mostly waits
  on worker processes (under load a process wake-up slows far more
  than the loop does).
"""

from __future__ import annotations

import resource
import time  # lint: disable=R2
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from statistics import median
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "GAUGE_INTERVAL_S",
    "PROBES",
    "Sample",
    "gauge",
    "gauge_due",
    "gauging",
    "local_speeds",
    "now",
    "peak_rss_mb",
    "speed",
    "take_samples",
]

#: Iterations of the loop probe (about 2 ms on a 2020s server core).
LOOP_STEPS = 25_000
#: Round trips, and the sleep of each task, of the pool probe.
POOL_TRIPS = 3
POOL_SLEEP_S = 0.0005
#: Each probe's time on the reference host: scaled times read as they
#: would on a host that runs the probe in exactly this long.
PROBES = {"loop": 2.0e-3, "pool": 3.0e-3}
#: Least clock time between two gauge samples taken by :func:`gauge_due`.
GAUGE_INTERVAL_S = 0.05
#: :func:`local_speeds` reads the samples this close to an operation...
LOCAL_WINDOW_S = 0.5
#: ...and at least this many of the nearest.
LOCAL_MIN_SAMPLES = 5

#: One gauge sample: (clock time when it ended, probe time over the
#: probe's reference time).
Sample = Tuple[float, float]


def _loop() -> None:
    sum(i * i % 7 for i in range(LOOP_STEPS))


_paused = 0.0
_last = 0.0
_samples: List[Sample] = []
_probe: Callable[[], None] = _loop
_reference = PROBES["loop"]


def now() -> float:
    """Monotonic seconds, minus the time spent in the gauge; every
    timing in the benchmark goes through here."""
    return time.perf_counter() - _paused  # lint: disable=R7


@contextmanager
def gauging(probe: str) -> Iterator[None]:
    """Sample the gauge with ``probe`` (a key of :data:`PROBES`) inside
    the block; the pool probe's process is stopped and reaped on exit."""
    global _probe, _reference
    if probe == "loop":
        yield
        return
    if probe != "pool":
        raise ValueError(f"unknown gauge probe {probe!r}")
    with ProcessPoolExecutor(max_workers=1) as pool:
        pool.submit(time.sleep, 0).result()  # start the worker

        def trips() -> None:
            for _ in range(POOL_TRIPS):
                pool.submit(time.sleep, POOL_SLEEP_S).result()

        _probe, _reference = trips, PROBES["pool"]
        try:
            yield
        finally:
            _probe, _reference = _loop, PROBES["loop"]


def gauge() -> None:
    """Run the probe once and take its time off the clock."""
    global _paused, _last
    begin = time.perf_counter()  # lint: disable=R7
    _probe()
    took = time.perf_counter() - begin  # lint: disable=R7
    _paused += took
    _last = now()
    _samples.append((_last, took / _reference))


def gauge_due() -> None:
    """Sample the gauge if :data:`GAUGE_INTERVAL_S` has passed since the
    last sample; workloads call this between operations."""
    if now() - _last >= GAUGE_INTERVAL_S:
        gauge()


def take_samples() -> List[Sample]:
    """The gauge samples since the last call; starts afresh."""
    samples = list(_samples)
    _samples.clear()
    return samples


def speed(samples: Sequence[Sample]) -> float:
    """Host speed over ``samples`` relative to the reference host.

    Above 1 the host ran the probe faster than the reference.  A time
    measured beside the samples times this factor is what the
    reference host would have shown.  The median probe time is used,
    so one preempted sample does not move it.
    """
    if not samples:
        raise ValueError("no gauge samples")
    return 1.0 / median(rel for _t, rel in samples)


def local_speeds(
    times: Sequence[float], samples: Sequence[Sample]
) -> List[float]:
    """Host speed at each of ``times`` (clock times, any order).

    The speed at ``t`` is :func:`speed` over the samples within
    :data:`LOCAL_WINDOW_S` of ``t``, widened to the
    :data:`LOCAL_MIN_SAMPLES` nearest when the window holds fewer;
    the median keeps one preempted sample from moving its neighbours.
    A time measured at ``t`` times its speed is what the reference host
    would have shown.
    """
    if not samples:
        raise ValueError("no gauge samples")
    least = min(LOCAL_MIN_SAMPLES, len(samples))
    ordered = sorted(samples)
    at = np.array([t for t, _rel in ordered])
    rel = [r for _t, r in ordered]
    t = np.asarray(times, dtype=float)
    lo = np.searchsorted(at, t - LOCAL_WINDOW_S, side="left")
    hi = np.searchsorted(at, t + LOCAL_WINDOW_S, side="right")
    short = hi - lo < least
    if short.any():
        mid = np.searchsorted(at, t[short])
        lo[short] = np.clip(mid - least // 2, 0, len(at) - least)
        hi[short] = lo[short] + least
    cache: Dict[Tuple[int, int], float] = {}
    out = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        if (a, b) not in cache:
            cache[(a, b)] = 1.0 / median(rel[a:b])
        out.append(cache[(a, b)])
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
