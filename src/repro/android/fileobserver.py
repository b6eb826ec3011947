"""``android.os.FileObserver`` over the simulated VFS.

Any app — system or not, and crucially *without any special
permission beyond SD-Card access* — can watch a directory for
inotify-style events.  The paper's attacker counts ``CLOSE_NOWRITE``
events to find the end of an installer's integrity check
(Section III-B), and the DAPP defense watches the same stream for
suspicious writes (Section V-B).

Like the real API, the stream may be lossy: when the observer's
subscription carries :class:`~repro.sim.events.WatchLimits`, a queue
overflow surfaces as a single :data:`FileEventType.Q_OVERFLOW` event
(empty ``name``) and the intervening events are gone — the consumer
must rescan the directory to resynchronize.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, Optional, Set, Tuple

from repro.android.filesystem import FileEvent, FileEventType, normalize
from repro.sim.events import EventHub, QueueOverflow, Subscription, WatchLimits

ALL_EVENTS: Set[FileEventType] = set(FileEventType)

#: Events kept in :attr:`FileObserver.history`.  Counters are exact
#: forever; the history ring only backs "recent events" introspection
#: and tests, so a bounded default stops week-long watches from
#: accreting memory.
DEFAULT_HISTORY_LIMIT = 4096


class FileObserver:
    """Watches one directory (non-recursive, like the Android class)."""

    def __init__(self, hub: EventHub, directory: str,
                 mask: Optional[Iterable[FileEventType]] = None,
                 limits: Optional[WatchLimits] = None,
                 history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT) -> None:
        self._hub = hub
        self.directory = normalize(directory)
        self.mask: Set[FileEventType] = set(mask) if mask is not None else set(ALL_EVENTS)
        self.limits = limits
        self._subscription: Optional[Subscription] = None
        # A tuple, replaced on registration: dispatch iterates it
        # without copying, and a listener added mid-dispatch waits for
        # the next event.
        self._listeners: Tuple[Callable[[FileEvent], None], ...] = ()
        self.history: Deque[FileEvent] = deque(maxlen=history_limit)
        #: Matching events ever dispatched (history may have evicted some).
        self.events_seen = 0
        #: ``Q_OVERFLOW`` events received — loss episodes on this watch.
        self.overflows = 0
        self._counts: Dict[Tuple[FileEventType, str], int] = {}
        self._type_counts: Dict[FileEventType, int] = {}

    def on_event(self, listener: Callable[[FileEvent], None]) -> None:
        """Register ``listener`` for every matching event while watching."""
        self._listeners += (listener,)

    def start_watching(self) -> None:
        """Begin receiving events. Idempotent."""
        if self._subscription is None:
            self._subscription = self._hub.subscribe(
                f"fs:{self.directory}", self._dispatch, limits=self.limits
            )

    def stop_watching(self) -> None:
        """Stop receiving events. Idempotent."""
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    @property
    def watching(self) -> bool:
        """True while the observer is registered."""
        return self._subscription is not None

    @property
    def subscription(self) -> Optional[Subscription]:
        """The live hub subscription (loss counters live here)."""
        return self._subscription

    def count(self, event_type: FileEventType, name: Optional[str] = None) -> int:
        """How many events of ``event_type`` (optionally for ``name``) were seen.

        O(1): counters are maintained incrementally at dispatch and
        survive history eviction.
        """
        if name is None:
            return self._type_counts.get(event_type, 0)
        return self._counts.get((event_type, name), 0)

    def _dispatch(self, event: FileEvent) -> None:
        if isinstance(event, QueueOverflow):
            self.overflows += 1
            event = FileEvent(FileEventType.Q_OVERFLOW, self.directory,
                              "", event.time_ns)
        event_type = event.event_type
        if event_type not in self.mask:
            return
        self.events_seen += 1
        counts = self._counts
        key = (event_type, event.name)
        counts[key] = counts.get(key, 0) + 1
        type_counts = self._type_counts
        type_counts[event_type] = type_counts.get(event_type, 0) + 1
        self.history.append(event)
        for listener in self._listeners:
            listener(event)

    def __repr__(self) -> str:
        state = "watching" if self.watching else "stopped"
        return f"FileObserver({self.directory!r}, {state}, seen={self.events_seen})"
