"""Tests for the EventHub pub/sub layer."""

from dataclasses import dataclass

import pytest

from repro.sim.events import EventHub, QueueOverflow, WatchLimits
from repro.sim.kernel import Kernel


def make_hub():
    kernel = Kernel()
    return kernel, EventHub(kernel)


@dataclass(frozen=True)
class Payload:
    """Minimal payload carrying the duck-typed coalescing identity."""

    event_type: str
    name: str


def test_publish_reaches_subscriber():
    kernel, hub = make_hub()
    seen = []
    hub.subscribe("topic", seen.append)
    assert hub.publish("topic", "hello") == 1
    kernel.run()
    assert seen == ["hello"]


def test_publish_counts_only_matching_topic():
    kernel, hub = make_hub()
    hub.subscribe("a", lambda _: None)
    assert hub.publish("b", "x") == 0


def test_delivery_is_deferred_not_inline():
    kernel, hub = make_hub()
    seen = []
    hub.subscribe("topic", seen.append)
    hub.publish("topic", 1)
    assert seen == []  # not delivered until the kernel dispatches
    kernel.run()
    assert seen == [1]


def test_subscriber_added_after_publish_misses_event():
    kernel, hub = make_hub()
    seen = []
    hub.publish("topic", "early")
    hub.subscribe("topic", seen.append)
    kernel.run()
    assert seen == []


def test_cancel_stops_delivery():
    kernel, hub = make_hub()
    seen = []
    subscription = hub.subscribe("topic", seen.append)
    subscription.cancel()
    hub.publish("topic", 1)
    kernel.run()
    assert seen == []


def test_cancel_after_publish_but_before_dispatch():
    kernel, hub = make_hub()
    seen = []
    subscription = hub.subscribe("topic", seen.append)
    hub.publish("topic", 1)
    subscription.cancel()
    kernel.run()
    assert seen == []  # late cancellation still suppresses delivery


def test_multiple_subscribers_in_order():
    kernel, hub = make_hub()
    seen = []
    hub.subscribe("topic", lambda value: seen.append(("first", value)))
    hub.subscribe("topic", lambda value: seen.append(("second", value)))
    hub.publish("topic", 9)
    kernel.run()
    assert seen == [("first", 9), ("second", 9)]


def test_delayed_publish():
    kernel, hub = make_hub()
    times = []
    hub.subscribe("topic", lambda _: times.append(kernel.clock.now_ns))
    hub.publish("topic", None, delay_ns=1_000)
    kernel.run()
    assert times == [1_000]


def test_subscriber_count():
    _kernel, hub = make_hub()
    sub1 = hub.subscribe("t", lambda _: None)
    hub.subscribe("t", lambda _: None)
    assert hub.publish("t", None) == 2  # deliveries scheduled
    sub1.cancel()
    assert hub.publish("t", None) == 1


def test_cancel_is_idempotent():
    _kernel, hub = make_hub()
    subscription = hub.subscribe("t", lambda _: None)
    subscription.cancel()
    subscription.cancel()
    assert hub.publish("t", None) == 0


# -- bounded (lossy) subscriptions ------------------------------------------


def test_lossless_limits_normalize_to_none():
    _kernel, hub = make_hub()
    sub = hub.subscribe("t", lambda _: None, limits=WatchLimits())
    assert sub.limits is None  # identical to the unlimited path


def test_watch_limits_validation():
    with pytest.raises(ValueError):
        WatchLimits(max_queue_depth=0)
    with pytest.raises(ValueError):
        WatchLimits(drain_interval_ns=-1)


def test_depth_overflow_drops_and_synthesizes_one_sentinel():
    kernel, hub = make_hub()
    seen = []
    sub = hub.subscribe("t", seen.append,
                        limits=WatchLimits(max_queue_depth=2))
    for i in range(5):
        hub.publish("t", Payload("WRITE", f"f{i}"))
    kernel.run()
    overflows = [p for p in seen if isinstance(p, QueueOverflow)]
    events = [p for p in seen if not isinstance(p, QueueOverflow)]
    assert [p.name for p in events] == ["f0", "f1"]
    assert len(overflows) == 1  # one sentinel per congestion episode
    assert overflows[0].dropped == 1  # cumulative count at synthesis time
    assert sub.published == 5
    assert sub.delivered == 2
    assert sub.dropped_overflow == 3
    assert sub.overflows == 1


def test_overflow_latch_rearms_after_full_drain():
    kernel, hub = make_hub()
    seen = []
    hub.subscribe("t", seen.append, limits=WatchLimits(max_queue_depth=1))
    hub.publish("t", Payload("WRITE", "a"))
    hub.publish("t", Payload("WRITE", "b"))  # dropped: first episode
    kernel.run()  # queue fully drains: latch re-arms
    hub.publish("t", Payload("WRITE", "c"))
    hub.publish("t", Payload("WRITE", "d"))  # dropped: second episode
    kernel.run()
    overflows = [p for p in seen if isinstance(p, QueueOverflow)]
    assert len(overflows) == 2


def test_publish_counts_bounded_subscription_even_when_dropping():
    kernel, hub = make_hub()
    hub.subscribe("t", lambda _: None, limits=WatchLimits(max_queue_depth=1))
    assert hub.publish("t", Payload("WRITE", "a")) == 1
    assert hub.publish("t", Payload("WRITE", "b")) == 1  # dropped, still 1


def test_coalescing_drops_duplicates_of_newest_queued():
    kernel, hub = make_hub()
    seen = []
    sub = hub.subscribe(
        "t", seen.append,
        limits=WatchLimits(max_queue_depth=8, coalesce=True))
    hub.publish("t", Payload("WRITE", "a"))
    hub.publish("t", Payload("WRITE", "a"))  # coalesced into the first
    hub.publish("t", Payload("WRITE", "b"))  # different name: kept
    hub.publish("t", Payload("CLOSE", "b"))  # different type: kept
    kernel.run()
    assert [(p.event_type, p.name) for p in seen] == [
        ("WRITE", "a"), ("WRITE", "b"), ("CLOSE", "b")]
    assert sub.dropped_coalesced == 1


def test_coalescing_ignores_payloads_without_event_type():
    kernel, hub = make_hub()
    seen = []
    hub.subscribe("t", seen.append,
                  limits=WatchLimits(max_queue_depth=8, coalesce=True))
    hub.publish("t", "broadcast")
    hub.publish("t", "broadcast")  # no event_type: never coalesced
    kernel.run()
    assert seen == ["broadcast", "broadcast"]


def test_drain_interval_paces_queued_deliveries():
    kernel, hub = make_hub()
    times = []
    hub.subscribe(
        "t", lambda _: times.append(kernel.clock.now_ns),
        limits=WatchLimits(max_queue_depth=8, drain_interval_ns=10))
    for i in range(3):
        hub.publish("t", Payload("WRITE", f"f{i}"))
    kernel.run()
    assert times == [0, 10, 20]  # one delivery per drain interval


def test_drain_pacing_keeps_queue_occupied_across_time():
    kernel, hub = make_hub()
    sub = hub.subscribe(
        "t", lambda _: None,
        limits=WatchLimits(max_queue_depth=2, drain_interval_ns=100))
    hub.publish("t", Payload("WRITE", "a"))
    hub.publish("t", Payload("WRITE", "b"))
    hub.publish("t", Payload("WRITE", "c"))  # queue still full: dropped
    assert sub.pending == 2
    assert sub.dropped_overflow == 1
    kernel.run()
    assert sub.pending == 0


def test_cancel_mid_queue_accounts_dropped_cancelled():
    kernel, hub = make_hub()
    seen = []
    sub = hub.subscribe("t", seen.append,
                        limits=WatchLimits(max_queue_depth=8))
    hub.publish("t", Payload("WRITE", "a"))
    hub.publish("t", Payload("WRITE", "b"))
    sub.cancel()
    kernel.run()
    assert seen == []
    assert sub.dropped_cancelled == 2
    assert sub.delivered + sub.dropped + sub.pending == sub.published


def test_bounded_conservation_invariant_holds_after_drain():
    kernel, hub = make_hub()
    sub = hub.subscribe(
        "t", lambda _: None,
        limits=WatchLimits(max_queue_depth=3, drain_interval_ns=5,
                           coalesce=True))
    for i in range(12):
        hub.publish("t", Payload("WRITE", f"f{i % 2}"))
    kernel.run()
    assert sub.pending == 0
    assert sub.delivered + sub.dropped == sub.published == 12
