"""The host-speed probes: scaling arithmetic and the timer they install."""

import signal
from time import perf_counter

import pytest

from pace import PERIOD_S, REFERENCE_S, Pace, at_reference


def test_at_reference_scales_by_the_mean_probe_time():
    assert at_reference(3.0, [REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx(1.5)


def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_probes_inside_a_block_are_taken_out_of_its_wall_time():
    before = signal.getsignal(signal.SIGALRM)
    with Pace() as pace:
        _busy(4.5 * PERIOD_S)  # probes run inside this clock time
    assert len(pace.cpu) >= 2 + 3  # around the block, and ticks inside it
    assert 2.5 * PERIOD_S < pace.wall < 4.5 * PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_probes_inside_only_the_two_around_run():
    with Pace(during=False) as pace:
        _busy(2.5 * PERIOD_S)
    assert len(pace.cpu) == 2
    assert pace.wall >= 2.5 * PERIOD_S
    assert pace.scaled() > 0.0


def test_the_timer_stops_when_the_block_raises():
    with pytest.raises(ValueError):
        with Pace():
            raise ValueError("job failed")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
