"""Structured trace recording keyed on *simulated* time.

A recorder collects two kinds of records:

- **events** — something happened at one instant of simulated time
  (a defense decision, an attack strike, an install outcome),
- **spans** — something occupied an interval of simulated time (an
  AIT step, a kernel process lifetime, an attack arm/strike window).

Records hold only simulated-time integers and plain JSON-compatible
attributes, never wall-clock readings, so the trace of a fixed seed is
byte-identical across runs, worker counts and backends — the same
determinism contract :mod:`repro.engine` gives for merged stats.
Wall-clock timing stays beside the trace (in
:class:`~repro.engine.spec.ShardResult` / ``FleetReport`` fields),
exactly like :mod:`repro.engine.merge` treats statistics.

The default recorder everywhere is the :data:`NULL_RECORDER` singleton:
every hook is a no-op and ``enabled`` is ``False``, so hot paths guard
with ``if recorder.enabled:`` and pay one attribute check when
observability is off.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Record-type tags used in exported JSONL.
SPAN = "span"
EVENT = "event"


class NullRecorder:
    """Zero-overhead default recorder: records nothing.

    ``enabled`` is ``False`` so instrumentation sites can skip even the
    cost of building attribute dictionaries.
    """

    __slots__ = ()

    enabled = False

    def event(self, name: str, time_ns: int, **attrs: Any) -> None:
        """Discard an instant event."""

    def span(self, name: str, start_ns: int, end_ns: int,
             **attrs: Any) -> None:
        """Discard a closed span."""

    def records(self) -> List[Dict[str, Any]]:
        """A ``NullRecorder`` never holds records."""
        return []

    def __repr__(self) -> str:
        return "NullRecorder()"


#: Shared process-wide no-op recorder (stateless, safe to share).
NULL_RECORDER = NullRecorder()


class TraceRecorder(NullRecorder):
    """Collects span/event records in emission order.

    Emission order is itself deterministic (the simulator dispatches
    events in a fixed order for a fixed seed), so ``records()`` — and
    therefore the JSONL export — is reproducible byte for byte.
    """

    __slots__ = ("_records",)

    enabled = True

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []

    def event(self, name: str, time_ns: int, **attrs: Any) -> None:
        """Record an instant event at simulated time ``time_ns``."""
        record: Dict[str, Any] = {"type": EVENT, "name": name,
                                  "t_ns": int(time_ns)}
        if attrs:
            record["attrs"] = attrs
        self._records.append(record)

    def span(self, name: str, start_ns: int, end_ns: int,
             **attrs: Any) -> None:
        """Record a closed span over ``[start_ns, end_ns]``."""
        record: Dict[str, Any] = {"type": SPAN, "name": name,
                                  "start_ns": int(start_ns),
                                  "end_ns": int(end_ns)}
        if attrs:
            record["attrs"] = attrs
        self._records.append(record)

    def records(self) -> List[Dict[str, Any]]:
        """All records in emission order (plain dicts, picklable)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"TraceRecorder({len(self._records)} records)"
