"""The discrete-event kernel: scheduled callbacks and generator processes."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.errors import DeadlockError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_RECORDER, NullRecorder
from repro.sim.clock import SimClock


@dataclass(frozen=True)
class Sleep:
    """Yielded by a process to suspend itself for ``duration_ns``."""

    duration_ns: int

    def __post_init__(self) -> None:
        if self.duration_ns < 0:
            raise SimulationError("cannot sleep for a negative duration")


@dataclass(frozen=True)
class WaitFor:
    """Yielded by a process to block until ``event`` is triggered.

    The value passed to :meth:`SimEvent.trigger` becomes the result of
    the ``yield`` expression.  If the event was already triggered the
    process resumes on the next dispatch without advancing the clock.
    """

    event: "SimEvent"


class SimEvent:
    """A one-shot condition that processes can wait on.

    Triggering an already-triggered event is an error unless the event
    was created with ``reusable=True``, in which case each trigger wakes
    the waiters registered since the previous trigger.
    """

    def __init__(self, name: str = "", reusable: bool = False) -> None:
        self.name = name
        self.reusable = reusable
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def trigger(self, value: Any = None) -> None:
        """Mark the event as having happened and wake every waiter."""
        if self.triggered and not self.reusable:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)
        if self.reusable:
            self.triggered = False

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback``; invoked immediately if already triggered."""
        if self.triggered and not self.reusable:
            callback(self.value)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"SimEvent({self.name!r}, {state})"


ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running generator process managed by the kernel."""

    def __init__(self, kernel: "Kernel", gen: ProcessGenerator, name: str) -> None:
        self._kernel = kernel
        self._gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.completion = SimEvent(name=f"{name}.completion")
        self.spawned_ns = kernel.clock.now_ns
        self.steps = 0
        self._last_step_ns = self.spawned_ns
        # Dispatch fast path: the resume callbacks are bound once here
        # instead of allocating a fresh closure on every yield, and the
        # metrics branch compiles down to one precomputed flag check.
        self._observed = kernel.metrics is not None
        self._resume = self._step            # 1-arg: event waiters
        self._resume_none = self._step_none  # 0-arg: timers

    def _step_none(self) -> None:
        self._step(None)

    def _step(self, send_value: Any) -> None:
        """Advance the generator by one yield and act on what it asks for."""
        if self._observed:
            kernel = self._kernel
            observe = kernel._observe_step
            if observe is None:
                observe = kernel._observe_step = kernel.metrics.bind_histogram(
                    "kernel/step_latency_ns")
            now_ns = kernel.clock.now_ns
            observe(now_ns - self._last_step_ns)
            self._last_step_ns = now_ns
        self.steps += 1
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # propagate app bugs to the caller
            self._finish(error=exc)
            return
        if isinstance(yielded, Sleep):
            self._kernel.call_later(yielded.duration_ns, self._resume_none)
        elif isinstance(yielded, WaitFor):
            yielded.event.add_waiter(self._resume)
        elif isinstance(yielded, Process):
            yielded.completion.add_waiter(self._resume)
        elif yielded is None:
            self._kernel.call_later(0, self._resume_none)
        else:
            self._finish(
                error=SimulationError(
                    f"process {self.name!r} yielded unsupported value {yielded!r}"
                )
            )

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.done = True
        self.result = result
        self.error = error
        self._kernel._active_processes.discard(self)
        kernel = self._kernel
        if kernel.obs.enabled:
            kernel.obs.span(
                "kernel/process", self.spawned_ns, kernel.clock.now_ns,
                process=self.name, steps=self.steps,
                error=type(error).__name__ if error is not None else "")
        self.completion.trigger(result)
        if error is not None:
            self._kernel._failures.append((self, error))

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Kernel:
    """Event loop owning the clock, the event queue and all processes.

    ``recorder``/``metrics`` switch on observability: process-lifetime
    spans go to the recorder, dispatch counts / queue-depth high-water /
    per-step latency go to the registry.  Both default to off
    (:data:`~repro.obs.trace.NULL_RECORDER` and ``None``), costing hot
    paths a single attribute check.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 recorder: Optional[NullRecorder] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.clock = clock or SimClock()
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.metrics = metrics
        self._queue: List[Any] = []
        self._sequence = itertools.count()
        self._active_processes: set = set()
        self._failures: List[Any] = []
        self._process_count = itertools.count(1)
        # Bound instruments, resolved on first use (_step, _account_run).
        self._observe_step: Optional[Callable[[int], None]] = None
        self._account_bound: Optional[tuple] = None

    # -- scheduling ---------------------------------------------------------

    def call_later(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise SimulationError("cannot schedule an event in the past")
        heapq.heappush(self._queue, (self.clock.now_ns + delay_ns,
                                     next(self._sequence), callback))

    def spawn(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a generator as a process; it runs on the next dispatch."""
        proc = Process(self, gen, name or f"proc-{next(self._process_count)}")
        self._active_processes.add(proc)
        self.call_later(0, lambda: proc._step(None))
        return proc

    # -- execution ----------------------------------------------------------

    def run(self, until_ns: Optional[int] = None, max_events: int = 10_000_000) -> int:
        """Dispatch queued events until the queue drains.

        Args:
            until_ns: stop (leaving later events queued) once the next
                event lies beyond this time.
            max_events: safety valve against runaway loops.

        Returns:
            The number of events dispatched.

        Raises:
            DeadlockError: if processes are still alive but no events
                remain, meaning they wait on events nobody will trigger.
            SimulationError: if ``max_events`` events were dispatched
                and more remain queued (a runaway loop).  Draining the
                queue with exactly ``max_events`` dispatches is fine.
        """
        track = self.metrics is not None
        queue_peak = 0
        dispatched = 0
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            if track and len(queue) > queue_peak:
                queue_peak = len(queue)
            when_ns = queue[0][0]
            if until_ns is not None and when_ns > until_ns:
                self.clock.advance_to(until_ns)
                if track:
                    self._account_run(dispatched, queue_peak)
                return dispatched
            self.clock.advance_to(when_ns)
            callback = heappop(queue)[2]
            callback()
            dispatched += 1
            if dispatched >= max_events and queue:
                raise SimulationError(
                    f"exceeded {max_events} events; likely a livelock")
            # Batch sweep: every event queued for this same timestamp
            # (including ones the callbacks schedule *at* it, which
            # sort after by sequence number) dispatches without
            # re-checking ``until_ns`` or re-advancing the clock —
            # ``when_ns <= until_ns`` already held above.
            while queue and queue[0][0] == when_ns:
                if track and len(queue) > queue_peak:
                    queue_peak = len(queue)
                callback = heappop(queue)[2]
                callback()
                dispatched += 1
                if dispatched >= max_events and queue:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock")
        if track:
            self._account_run(dispatched, queue_peak)
        if until_ns is not None:
            self.clock.advance_to(until_ns)
        if self._active_processes and until_ns is None:
            stuck = sorted(proc.name for proc in self._active_processes)
            raise DeadlockError(f"processes still waiting with empty queue: {stuck}")
        return dispatched

    def _account_run(self, dispatched: int, queue_peak: int) -> None:
        """Fold one ``run`` call's dispatch accounting into the registry."""
        bound = self._account_bound
        if bound is None:
            bound = self._account_bound = (
                self.metrics.bind_counter("kernel/events_dispatched"),
                self.metrics.bind_counter("kernel/run_calls"),
                self.metrics.bind_gauge("kernel/queue_depth_peak"),
            )
        inc_dispatched, inc_runs, set_peak = bound
        inc_dispatched(dispatched)
        inc_runs()
        set_peak(queue_peak)

    def run_process(self, gen: ProcessGenerator, name: str = "") -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        Re-raises any exception the process died with, so test code sees
        app failures directly.
        """
        proc = self.spawn(gen, name=name)
        self.run()
        if proc.error is not None:
            raise proc.error
        return proc.result

    @property
    def failures(self) -> List[Any]:
        """(process, exception) pairs for processes that died with errors."""
        return list(self._failures)

    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def __repr__(self) -> str:
        return (
            f"Kernel(now_ns={self.clock.now_ns}, queued={len(self._queue)}, "
            f"active={len(self._active_processes)})"
        )
