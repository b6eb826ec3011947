"""Tests for the discrete-event kernel and its process model."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.kernel import Kernel, Sleep, SimEvent, WaitFor


def test_call_later_runs_in_order():
    kernel = Kernel()
    seen = []
    kernel.call_later(20, lambda: seen.append("b"))
    kernel.call_later(10, lambda: seen.append("a"))
    kernel.run()
    assert seen == ["a", "b"]


def test_same_time_events_run_fifo():
    kernel = Kernel()
    seen = []
    for label in "abc":
        kernel.call_later(5, lambda label=label: seen.append(label))
    kernel.run()
    assert seen == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    kernel = Kernel()
    kernel.call_later(1_000, lambda: None)
    kernel.run()
    assert kernel.clock.now_ns == 1_000


def test_cannot_schedule_in_the_past():
    kernel = Kernel()
    kernel.clock.advance_to(100)
    with pytest.raises(SimulationError):
        kernel.call_at(50, lambda: None)


def test_run_until_leaves_future_events_queued():
    kernel = Kernel()
    seen = []
    kernel.call_later(10, lambda: seen.append("early"))
    kernel.call_later(100, lambda: seen.append("late"))
    kernel.run(until_ns=50)
    assert seen == ["early"]
    assert kernel.pending_events() == 1
    assert kernel.clock.now_ns == 50


def test_process_sleep_advances_time():
    kernel = Kernel()

    def proc():
        yield Sleep(500)
        return kernel.clock.now_ns

    assert kernel.run_process(proc()) == 500


def test_process_returns_value():
    kernel = Kernel()

    def proc():
        yield Sleep(1)
        return "result"

    assert kernel.run_process(proc()) == "result"


def test_process_negative_sleep_rejected():
    with pytest.raises(SimulationError):
        Sleep(-5)


def test_process_error_propagates_via_run_process():
    kernel = Kernel()

    def proc():
        yield Sleep(1)
        raise ValueError("app bug")

    with pytest.raises(ValueError, match="app bug"):
        kernel.run_process(proc())


def test_process_error_recorded_in_failures():
    kernel = Kernel()

    def proc():
        yield Sleep(1)
        raise RuntimeError("boom")

    kernel.spawn(proc())
    kernel.run()
    assert len(kernel.failures) == 1
    with pytest.raises(RuntimeError):
        kernel.check_failures()


def test_wait_for_event_receives_value():
    kernel = Kernel()
    event = SimEvent("data-ready")

    def producer():
        yield Sleep(100)
        event.trigger("payload")

    def consumer():
        value = yield WaitFor(event)
        return value

    kernel.spawn(producer())
    proc = kernel.spawn(consumer())
    kernel.run()
    assert proc.result == "payload"


def test_wait_on_already_triggered_event_resumes():
    kernel = Kernel()
    event = SimEvent("done")
    event.trigger(42)

    def consumer():
        value = yield WaitFor(event)
        return value

    assert kernel.run_process(consumer()) == 42


def test_event_double_trigger_rejected():
    event = SimEvent("once")
    event.trigger()
    with pytest.raises(SimulationError):
        event.trigger()


def test_reusable_event_retriggers():
    event = SimEvent("pulse", reusable=True)
    seen = []
    event.add_waiter(seen.append)
    event.trigger(1)
    event.add_waiter(seen.append)
    event.trigger(2)
    assert seen == [1, 2]


def test_process_waiting_forever_raises_deadlock():
    kernel = Kernel()
    event = SimEvent("never")

    def stuck():
        yield WaitFor(event)

    kernel.spawn(stuck(), name="stuck-proc")
    with pytest.raises(DeadlockError, match="stuck-proc"):
        kernel.run()


def test_process_join_another_process():
    kernel = Kernel()

    def child():
        yield Sleep(50)
        return "child-result"

    def parent():
        proc = kernel.spawn(child())
        value = yield proc
        return value

    assert kernel.run_process(parent()) == "child-result"


def test_yield_none_reschedules():
    kernel = Kernel()

    def proc():
        yield None
        return kernel.clock.now_ns

    assert kernel.run_process(proc()) == 0


def test_unsupported_yield_fails_process():
    kernel = Kernel()

    def proc():
        yield "garbage"

    proc_handle = kernel.spawn(proc())
    kernel.run()
    assert isinstance(proc_handle.error, SimulationError)


def test_max_events_guard():
    kernel = Kernel()

    def rescheduler():
        kernel.call_later(0, rescheduler)

    kernel.call_later(0, rescheduler)
    with pytest.raises(SimulationError, match="livelock"):
        kernel.run(max_events=100)


def test_max_events_exact_drain_is_not_livelock():
    # Regression: a run that drains the queue in exactly max_events
    # dispatches used to be misreported as a livelock.
    kernel = Kernel()
    seen = []
    for index in range(5):
        kernel.call_later(index, lambda index=index: seen.append(index))
    kernel.run(max_events=5)
    assert seen == [0, 1, 2, 3, 4]
    assert kernel.pending_events() == 0


def test_max_events_still_raises_when_events_remain():
    kernel = Kernel()
    for index in range(6):
        kernel.call_later(index, lambda: None)
    with pytest.raises(SimulationError, match="livelock"):
        kernel.run(max_events=5)


def test_reusable_event_waiter_added_during_trigger_waits_for_next():
    # Pin the re-arm semantics: a waiter registered from inside a
    # trigger callback belongs to the *next* trigger, not the current
    # one (otherwise a poll loop re-arming itself would recurse).
    event = SimEvent("pulse", reusable=True)
    seen = []

    def first(value):
        seen.append(("first", value))
        event.add_waiter(lambda v: seen.append(("nested", v)))

    event.add_waiter(first)
    event.trigger(1)
    assert seen == [("first", 1)]
    event.trigger(2)
    assert seen == [("first", 1), ("nested", 2)]


def test_reusable_event_untriggered_between_pulses():
    event = SimEvent("pulse", reusable=True)
    event.trigger("x")
    assert event.triggered is False  # re-armed, late waiters must wait
    late = []
    event.add_waiter(late.append)
    assert late == []
    event.trigger("y")
    assert late == ["y"]


def test_oneshot_event_waiter_added_during_trigger_fires_inline():
    # Contrast with the reusable case: a one-shot event stays
    # triggered, so a waiter added during its trigger runs immediately
    # with the already-published value.
    event = SimEvent("done")
    seen = []

    def first(value):
        seen.append(("first", value))
        event.add_waiter(lambda v: seen.append(("nested", v)))

    event.add_waiter(first)
    event.trigger(7)
    assert seen == [("first", 7), ("nested", 7)]


def test_spawn_names_are_generated():
    kernel = Kernel()

    def proc():
        yield Sleep(1)

    handle = kernel.spawn(proc())
    assert handle.name.startswith("proc-")


def test_call_later_rejects_a_negative_delay():
    kernel = Kernel()
    kernel.clock.advance_to(100)
    with pytest.raises(SimulationError):
        kernel.call_later(-1, lambda: None)
    assert kernel.pending_events() == 0
