"""Unit tests for the host-speed gauge and the clock that skips it."""

import pytest

from perfbench import clock
from perfbench.clock import local_speeds, speed


def test_speed_is_one_over_median_relative_probe_time():
    assert speed([(0.0, 1.0), (1.0, 2.0), (2.0, 50.0)]) == pytest.approx(0.5)
    assert speed([(5.0, 0.5)]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speed([])


def test_local_speeds_read_the_window_median():
    # A slow second (probe twice as long) between two reference ones,
    # one sample every 0.1 s, plus a single preempted sample.
    samples = [(i / 10, 2.0 if 10 <= i < 20 else 1.0) for i in range(30)]
    samples[5] = (0.5, 50.0)
    got = local_speeds([0.5, 1.5, 2.5], samples)
    assert got == pytest.approx([1.0, 0.5, 1.0])


def test_local_speeds_widen_to_the_nearest_samples():
    samples = [(0.0, 1.0), (0.1, 1.0)] + [(10 + i / 10, 2.0) for i in range(5)]
    # Nothing within the window of t=20: the five nearest are all slow.
    assert local_speeds([20.0], samples) == pytest.approx([0.5])
    # Fewer samples than the minimum: all of them are used.
    assert local_speeds([0.0], samples[:2]) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        local_speeds([0.0], [])


@pytest.mark.parametrize("probe", sorted(clock.PROBES))
def test_gauge_time_is_taken_off_the_clock(probe):
    with clock.gauging(probe):
        clock.take_samples()
        before = clock.now()
        clock.gauge()
        after = clock.now()
        [(at, rel)] = clock.take_samples()
    assert rel > 0
    assert after - before < rel * clock.PROBES[probe]
    assert before <= at <= after


def test_unknown_probe_is_refused():
    with pytest.raises(ValueError):
        with clock.gauging("abacus"):
            pass


def test_scaled_seconds_integrate_the_local_speed():
    from perfbench.harness import Phase

    phase = Phase(seconds=4.0, attempted=0, start=0.0, end=4.0)
    # Reference speed for the first two seconds, half speed after.
    phase.samples = [(t / 10, 1.0 if t < 20 else 2.0) for t in range(41)]
    assert phase.scaled_seconds() == pytest.approx(2.0 + 2.0 / 2, rel=0.05)
    phase.add("c", "i", 3.0, 3.1)
    latencies, classes = phase.times(scaled=True)
    assert latencies == pytest.approx([50.0])
    assert classes == {"c": {"i": latencies}}
