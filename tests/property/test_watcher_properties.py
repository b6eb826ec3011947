"""Property-based tests for the bounded (lossy) watch-queue model.

Three invariants pin the loss model for *any* seeded event sequence
and any limits:

1. **Conservation** — once the kernel drains, every event offered to a
   bounded subscription is accounted for exactly once:
   ``delivered + dropped == published``.
2. **Order preservation** — coalescing and overflow only *remove*
   events; the survivors arrive in publication order (the delivered
   stream is a subsequence of the published stream).
3. **Rescan convergence** — after a ``Q_OVERFLOW`` a consumer that
   falls back to listing the directory sees the true VFS state, no
   matter which notifications were lost (the dapp-rescan premise).
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.android.fileobserver import FileObserver
from repro.android.filesystem import Caller, FileEventType, Filesystem
from repro.sim.events import EventHub, QueueOverflow, WatchLimits
from repro.sim.kernel import Kernel

APP = Caller(uid=10001, package="com.app")


@dataclass(frozen=True)
class Payload:
    """Carries the duck-typed coalescing identity."""

    event_type: str
    name: str
    serial: int  # unique per publish, to check ordering


limits_strategy = st.builds(
    WatchLimits,
    max_queue_depth=st.one_of(st.none(), st.integers(min_value=1,
                                                     max_value=12)),
    drain_interval_ns=st.integers(min_value=0, max_value=50),
    coalesce=st.booleans(),
)

# Event sequences: small type/name alphabets make coalescing and
# overflow both reachable; delays interleave bursts with quiet gaps.
event_strategy = st.tuples(
    st.sampled_from(["WRITE", "CLOSE", "MOVE"]),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=120),  # publish-time gap (ns)
)
sequence_strategy = st.lists(event_strategy, min_size=0, max_size=40)


def _run_sequence(limits, sequence):
    """Publish ``sequence`` against one bounded subscription; drain."""
    kernel = Kernel()
    hub = EventHub(kernel)
    delivered = []
    sub = hub.subscribe("t", delivered.append, limits=limits)
    serial = 0
    published = []

    def publish_all():
        nonlocal serial
        when = 0
        for event_type, name, gap in sequence:
            when += gap
            payload = Payload(event_type, name, serial)
            serial += 1
            published.append(payload)
            kernel.call_later(when, lambda p=payload: hub.publish("t", p))

    publish_all()
    kernel.run()
    return sub, published, delivered


@given(limits=limits_strategy, sequence=sequence_strategy)
@settings(max_examples=120, deadline=None)
def test_conservation_after_drain(limits, sequence):
    sub, published, delivered = _run_sequence(limits, sequence)
    if sub.limits is None:  # lossless limits normalize away
        assert limits.lossless
        assert len([p for p in delivered
                    if not isinstance(p, QueueOverflow)]) == len(published)
        return
    assert sub.pending == 0
    assert sub.delivered + sub.dropped == sub.published == len(published)
    # The handler saw exactly the delivered events plus one sentinel
    # per congestion episode.
    sentinels = [p for p in delivered if isinstance(p, QueueOverflow)]
    assert len(sentinels) == sub.overflows
    assert len(delivered) - len(sentinels) == sub.delivered


@given(limits=limits_strategy, sequence=sequence_strategy)
@settings(max_examples=120, deadline=None)
def test_loss_never_reorders_survivors(limits, sequence):
    _sub, _published, delivered = _run_sequence(limits, sequence)
    serials = [p.serial for p in delivered
               if not isinstance(p, QueueOverflow)]
    assert serials == sorted(serials)  # a subsequence: strictly rising
    assert len(serials) == len(set(serials))  # and never duplicated


@given(
    depth=st.integers(min_value=1, max_value=4),
    drain_ns=st.integers(min_value=10, max_value=200),
    writes=st.integers(min_value=1, max_value=12),
    write_gap_ns=st.integers(min_value=0, max_value=150),
    rescan_interval_ns=st.integers(min_value=20, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_rescan_after_overflow_converges_to_vfs_state(
        depth, drain_ns, writes, write_gap_ns, rescan_interval_ns):
    """Overflow-triggered periodic rescans reconstruct the true VFS.

    The dapp-rescan premise, reduced to its mechanism: a consumer that
    mirrors the directory from ``CREATE`` notifications alone, and on
    ``Q_OVERFLOW`` starts rescanning (``listdir``) on a timer chain
    that outlives the write burst, must end bit-equal to the VFS no
    matter which notifications the bounded queue dropped.
    """
    kernel = Kernel()
    hub = EventHub(kernel)
    fs = Filesystem(hub, kernel.clock)
    fs.makedirs("/watched", APP)
    observer = FileObserver(
        hub, "/watched", mask={FileEventType.CREATE,
                               FileEventType.Q_OVERFLOW},
        limits=WatchLimits(max_queue_depth=depth,
                           drain_interval_ns=drain_ns))
    last_write_ns = writes * write_gap_ns
    mirror = set()
    rescanning = [False]

    def rescan_tick():
        mirror.update(fs.listdir("/watched"))
        if kernel.clock.now_ns <= last_write_ns:
            kernel.call_later(rescan_interval_ns, rescan_tick)
        else:
            rescanning[0] = False

    def consume(event):
        if event.event_type is FileEventType.Q_OVERFLOW:
            if not rescanning[0]:
                rescanning[0] = True
                rescan_tick()  # catch up now, then keep rescanning
        else:
            mirror.add(event.name)

    observer.on_event(consume)
    observer.start_watching()
    for i in range(writes):
        kernel.call_later(i * write_gap_ns,
                          lambda i=i: fs.write_bytes(f"/watched/f{i}",
                                                     APP, b"x"))
    kernel.run()
    truth = set(fs.listdir("/watched"))
    assert mirror <= truth  # never any phantom entries
    assert mirror == truth  # notify + rescan covers every drop
