"""Topic-based publish/subscribe hub used for system-wide notifications.

The Android substrate uses one :class:`EventHub` per simulated device
for filesystem notifications (FileObserver), package broadcasts
(``PACKAGE_ADDED``) and download-manager callbacks.  Delivery is
scheduled through the kernel so subscribers observe events in a
deterministic order and at the simulated time they occur.

Real inotify is not lossless: the kernel queue behind a watch
descriptor is bounded (``/proc/sys/fs/inotify/max_queued_events``),
identical consecutive events are coalesced, and once the queue fills
the kernel drops everything and enqueues a single ``IN_Q_OVERFLOW``
telling the consumer it must fall back to a full rescan.  A
subscription created with :class:`WatchLimits` reproduces that model:

* ``max_queue_depth`` bounds the number of accepted-but-undelivered
  events; further publishes are dropped.
* ``coalesce`` drops an event identical (same ``event_type``/``name``)
  to the newest one still queued.
* ``drain_interval_ns`` models consumer read latency: queued events
  are handed over at most one per interval, so bursts occupy the
  queue across simulated time instead of draining instantaneously.
* The first drop of a congestion episode synthesizes one
  :class:`QueueOverflow` sentinel, delivered out-of-band (it bypasses
  the queue, exactly like ``IN_Q_OVERFLOW``).  A new sentinel can only
  fire after the queue has fully drained.

Subscriptions without limits (the default everywhere) use the original
lossless path unchanged — same scheduling, same ordering, same golden
traces.  Loss accounting is per subscription and conserves events:
``delivered + dropped + pending == published`` at every instant, and
``delivered + dropped == published`` once the queue has drained (the
property suite pins this).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.kernel import Kernel

Handler = Callable[[Any], None]

#: Default consumer latency applied when a queue depth is configured
#: without an explicit drain interval: 2 ms per delivered event, the
#: same order of magnitude as a busy userspace inotify reader.
DEFAULT_DRAIN_INTERVAL_NS = 2_000_000


@dataclass(frozen=True)
class WatchLimits:
    """Loss model for one subscription (see module docstring).

    The default instance is lossless and behaves exactly like a
    subscription created without limits.
    """

    max_queue_depth: Optional[int] = None
    drain_interval_ns: int = 0
    coalesce: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.drain_interval_ns < 0:
            raise ValueError(
                f"drain_interval_ns must be >= 0, got {self.drain_interval_ns}")

    @property
    def lossless(self) -> bool:
        """True when these limits cannot change delivery at all."""
        return (self.max_queue_depth is None
                and self.drain_interval_ns == 0
                and not self.coalesce)


@dataclass(frozen=True)
class QueueOverflow:
    """Synthesized in place of dropped events — inotify's ``IN_Q_OVERFLOW``.

    Delivered to the subscription's handler out-of-band (it is not
    queued and does not count against ``published``/``delivered``).
    ``dropped`` is the subscription's cumulative overflow-drop count at
    synthesis time.
    """

    topic: str
    time_ns: int
    dropped: int


def _coalesce_key(payload: Any) -> Optional[Tuple[Any, Any]]:
    """Identity used for coalescing: ``(event_type, name)`` duck-typed.

    Payloads without an ``event_type`` attribute (broadcasts, download
    callbacks) are never coalesced.
    """
    event_type = getattr(payload, "event_type", None)
    if event_type is None:
        return None
    return (event_type, getattr(payload, "name", None))


@dataclass
class Subscription:
    """Handle returned by :meth:`EventHub.subscribe`; call ``cancel()``.

    When created with :class:`WatchLimits`, the loss-accounting
    counters below are live; lossless subscriptions leave them at zero
    (their delivery path does no bookkeeping at all).
    """

    hub: "EventHub"
    topic: str
    handler: Handler
    active: bool = True
    limits: Optional[WatchLimits] = None

    #: Events offered to this subscription (bounded path only).
    published: int = 0
    #: Events whose handler actually ran.
    delivered: int = 0
    #: Events dropped because the queue was at ``max_queue_depth``.
    dropped_overflow: int = 0
    #: Events dropped by same-``(event_type, name)`` coalescing.
    dropped_coalesced: int = 0
    #: Events accepted but cancelled before their delivery ran.
    dropped_cancelled: int = 0
    #: Congestion episodes — ``QueueOverflow`` sentinels synthesized.
    overflows: int = 0

    _pending_keys: Deque[Any] = field(default_factory=deque, repr=False)
    _next_delivery_ns: int = field(default=0, repr=False)
    _overflow_open: bool = field(default=False, repr=False)

    @property
    def pending(self) -> int:
        """Accepted events not yet handed to the handler."""
        return len(self._pending_keys)

    @property
    def dropped(self) -> int:
        """Total events lost, for the conservation invariant."""
        return (self.dropped_overflow + self.dropped_coalesced
                + self.dropped_cancelled)

    def cancel(self) -> None:
        """Stop delivering events to this subscription."""
        if self.active:
            self.active = False
            self.hub._remove(self)


class EventHub:
    """Deterministic pub/sub with kernel-scheduled delivery."""

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self._subs: Dict[str, List[Subscription]] = {}
        self._namespace_counts: Dict[str, int] = {}

    @staticmethod
    def _namespace(topic: str) -> str:
        """The topic's namespace: everything before the first colon.

        Topics follow a ``namespace:detail`` convention (``fs:/sdcard``,
        ``broadcast:PACKAGE_ADDED``, ``dm:done:3``); the namespace count
        lets publishers skip event construction entirely when nobody in
        the namespace is listening.
        """
        return topic.partition(":")[0]

    def subscribe(self, topic: str, handler: Handler,
                  limits: Optional[WatchLimits] = None) -> Subscription:
        """Register ``handler`` for every future event published on ``topic``.

        ``limits`` opts the subscription into the bounded/lossy queue
        model; ``None`` or a lossless :class:`WatchLimits` keeps the
        original lossless delivery path.
        """
        if limits is not None and limits.lossless:
            limits = None
        sub = Subscription(self, topic, handler, limits=limits)
        self._subs.setdefault(topic, []).append(sub)
        namespace = self._namespace(topic)
        self._namespace_counts[namespace] = \
            self._namespace_counts.get(namespace, 0) + 1
        return sub

    def namespace_active(self, namespace: str) -> bool:
        """True if any active subscription's topic lives in ``namespace``.

        O(1) — the hot-path guard the filesystem uses to skip building
        inotify events on unwatched devices (benign fleet shards have
        no FileObserver and no DAPP attached).
        """
        return self._namespace_counts.get(namespace, 0) > 0

    def publish(self, topic: str, payload: Any = None, delay_ns: int = 0) -> int:
        """Publish ``payload``, delivering via the kernel after ``delay_ns``.

        Returns the number of subscriptions the event was scheduled for
        (bounded subscriptions count even when the event is dropped —
        the drop is the subscription's loss, not the publisher's).
        Handlers added after ``publish`` do not see the event, matching
        inotify/broadcast semantics.
        """
        subs = self._subs.get(topic)
        if not subs:
            return 0
        # One pass over the live list: scheduling runs no handler, so
        # nothing can subscribe or cancel until this loop returns.
        call_later = self._kernel.call_later
        scheduled = 0
        for sub in subs:
            if not sub.active:
                continue
            scheduled += 1
            if sub.limits is None:
                call_later(delay_ns, _deliver(sub, payload))
            else:
                self._offer(sub, payload, delay_ns)
        return scheduled

    def subscriber_count(self, topic: str) -> int:
        """Number of active subscriptions on ``topic``."""
        return sum(1 for sub in self._subs.get(topic, []) if sub.active)

    # -- bounded (lossy) delivery ----------------------------------------------------------

    def _offer(self, sub: Subscription, payload: Any, delay_ns: int) -> None:
        """Queue ``payload`` on a bounded subscription, or drop it."""
        limits = sub.limits
        assert limits is not None
        sub.published += 1
        key = _coalesce_key(payload)
        if (limits.coalesce and key is not None and sub._pending_keys
                and sub._pending_keys[-1] == key):
            sub.dropped_coalesced += 1
            self._count("hub/events_coalesced")
            return
        depth = limits.max_queue_depth
        if depth is not None and len(sub._pending_keys) >= depth:
            sub.dropped_overflow += 1
            self._count("hub/events_dropped")
            if not sub._overflow_open:
                sub._overflow_open = True
                sub.overflows += 1
                self._count("hub/queue_overflows")
                when_ns = self._kernel.clock.now_ns + delay_ns
                obs = self._kernel.obs
                if obs.enabled:
                    obs.event("hub/q_overflow", when_ns, topic=sub.topic,
                              dropped=sub.dropped_overflow,
                              pending=len(sub._pending_keys))
                overflow = QueueOverflow(topic=sub.topic, time_ns=when_ns,
                                         dropped=sub.dropped_overflow)
                self._kernel.call_later(delay_ns, _deliver(sub, overflow))
            return
        now_ns = self._kernel.clock.now_ns
        deliver_at = max(now_ns + delay_ns, sub._next_delivery_ns)
        sub._next_delivery_ns = deliver_at + limits.drain_interval_ns
        sub._pending_keys.append(key)
        self._kernel.call_later(deliver_at - now_ns,
                                _deliver_queued(sub, payload))

    def _count(self, name: str) -> None:
        metrics = self._kernel.metrics
        if metrics is not None:
            metrics.counter(name).inc()

    def _remove(self, sub: Subscription) -> None:
        subs = self._subs.get(sub.topic, [])
        if sub in subs:
            subs.remove(sub)
            namespace = self._namespace(sub.topic)
            count = self._namespace_counts.get(namespace, 0)
            if count > 0:
                self._namespace_counts[namespace] = count - 1


def _deliver(sub: Subscription, payload: Any) -> Callable[[], None]:
    """Build a delivery thunk that respects late cancellation."""

    def run() -> None:
        if sub.active:
            sub.handler(payload)

    return run


def _deliver_queued(sub: Subscription, payload: Any) -> Callable[[], None]:
    """Delivery thunk for the bounded path: dequeue, account, deliver.

    A fully drained queue closes the overflow episode, re-arming the
    one-``QueueOverflow``-per-episode latch.
    """

    def run() -> None:
        sub._pending_keys.popleft()
        if not sub._pending_keys:
            sub._overflow_open = False
        if sub.active:
            sub.delivered += 1
            sub.handler(payload)
        else:
            sub.dropped_cancelled += 1

    return run
