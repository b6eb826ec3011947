"""Attack timelines: an annotated, human-readable event record.

A :class:`Timeline` taps the simulated device's global streams — every
filesystem event, every package broadcast, every Intent the firewall
sees — and merges them with the installer's AIT step boundaries into
one time-ordered transcript.  It is the tool you reach for when a
hijack 'shouldn't have worked': the transcript shows exactly which
CLOSE_NOWRITE the attacker counted and where the swap landed relative
to the integrity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.android.filesystem import FileEvent
from repro.android.pms import PackageBroadcast
from repro.core.ait import TransactionTrace


@dataclass(frozen=True)
class TimelineEntry:
    """One annotated moment."""

    time_ns: int
    source: str      # fs | pms | ait | note
    text: str


@dataclass
class Timeline:
    """A recording of everything observable on one device."""

    system: "object"
    entries: List[TimelineEntry] = field(default_factory=list)
    _started: bool = False

    def start(self) -> "Timeline":
        """Begin recording; returns self for chaining."""
        if not self._started:
            self._started = True
            self.system.hub.subscribe("fs:*", self._on_fs_event)
            for action in (
                "android.intent.action.PACKAGE_ADDED",
                "android.intent.action.PACKAGE_REPLACED",
                "android.intent.action.PACKAGE_REMOVED",
            ):
                self.system.hub.subscribe(f"broadcast:{action}",
                                          self._on_broadcast)
        return self

    def note(self, text: str) -> None:
        """Add a manual annotation at the current simulated time."""
        self.entries.append(
            TimelineEntry(self.system.now_ns, "note", text)
        )

    def absorb_trace(self, trace: TransactionTrace) -> None:
        """Fold an AIT trace's step boundaries into the timeline."""
        for step in trace.steps:
            self.entries.append(TimelineEntry(
                step.start_ns, "ait",
                f"step {step.step.value} ({step.step.title}) begins "
                f"via {step.mechanism}",
            ))
            if step.end_ns >= 0:
                self.entries.append(TimelineEntry(
                    step.end_ns, "ait",
                    f"step {step.step.value} ({step.step.title}) ends",
                ))

    def render(self, limit: Optional[int] = None,
               sources: Optional[set] = None) -> str:
        """The transcript, time-sorted, optionally filtered by source."""
        selected = [
            entry for entry in sorted(self.entries, key=lambda e: (e.time_ns,))
            if sources is None or entry.source in sources
        ]
        if limit is not None:
            selected = selected[:limit]
        lines = []
        for entry in selected:
            lines.append(
                f"{entry.time_ns / 1e6:>10.2f} ms  [{entry.source:4s}] "
                f"{entry.text}"
            )
        return "\n".join(lines)

    # -- taps -----------------------------------------------------------------

    def _on_fs_event(self, event: FileEvent) -> None:
        self.entries.append(TimelineEntry(
            event.time_ns, "fs", f"{event.event_type.value:13s} {event.path}"
        ))

    def _on_broadcast(self, broadcast: PackageBroadcast) -> None:
        self.entries.append(TimelineEntry(
            broadcast.time_ns, "pms",
            f"{broadcast.action.rsplit('.', 1)[-1]} {broadcast.package} "
            f"v{broadcast.version_code} (installer: {broadcast.installer})",
        ))
