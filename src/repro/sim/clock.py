"""Simulated monotonic clock with nanosecond resolution."""

from __future__ import annotations

from repro.errors import SimulationError

NANOS_PER_MICRO = 1_000
NANOS_PER_MILLI = 1_000_000
NANOS_PER_SECOND = 1_000_000_000


def millis(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(value * NANOS_PER_MILLI)


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(value * NANOS_PER_SECOND)


class SimClock:
    """A monotonic simulated clock.

    The clock only moves forward, and only when the kernel dispatches an
    event scheduled in the future.  This mirrors
    ``SystemClock.elapsedRealtimeNanos()`` on Android, which the paper
    uses for its performance measurements.
    """

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise SimulationError("clock cannot start before t=0")
        self._now_ns = start_ns

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds since boot."""
        return self._now_ns

    def advance_to(self, when_ns: int) -> None:
        """Move the clock forward to ``when_ns``.

        Raises:
            SimulationError: if ``when_ns`` is in the past.
        """
        if when_ns < self._now_ns:
            raise SimulationError(
                f"clock cannot move backwards ({when_ns} < {self._now_ns})"
            )
        self._now_ns = when_ns

    def __repr__(self) -> str:
        return f"SimClock(now_ns={self._now_ns})"
