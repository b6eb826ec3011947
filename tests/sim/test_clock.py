"""Tests for the simulated clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import (
    NANOS_PER_MILLI,
    NANOS_PER_SECOND,
    SimClock,
    millis,
    seconds,
)


def test_clock_starts_at_zero():
    assert SimClock().now_ns == 0


def test_clock_custom_start():
    assert SimClock(start_ns=500).now_ns == 500


def test_clock_rejects_negative_start():
    with pytest.raises(SimulationError):
        SimClock(start_ns=-1)


def test_advance_moves_forward():
    clock = SimClock()
    clock.advance_to(1_000)
    assert clock.now_ns == 1_000


def test_advance_to_same_instant_is_allowed():
    clock = SimClock(start_ns=10)
    clock.advance_to(10)
    assert clock.now_ns == 10


def test_advance_backwards_rejected():
    clock = SimClock(start_ns=100)
    with pytest.raises(SimulationError):
        clock.advance_to(99)


def test_millis_helper():
    assert millis(1) == NANOS_PER_MILLI
    assert millis(2.5) == 2_500_000


def test_seconds_helper():
    assert seconds(1) == NANOS_PER_SECOND
    assert seconds(0.001) == NANOS_PER_MILLI


def test_repr_shows_time():
    assert "42" in repr(SimClock(start_ns=42))
