"""Fleet executor: run campaign shards across a worker pool.

The process backend is one small explicit scheduler over a
:class:`WarmPool` of ``multiprocessing.Process`` workers rather than a
``multiprocessing.Pool``: that pool loses the task (and may hang the
caller) when a worker dies abruptly, while the whole point here is
precise per-shard crash/timeout semantics — a shard whose worker
crashes or overruns its deadline is retried a bounded number of times,
then degraded to the in-process serial backend, which is also the
fleet-wide fallback when ``multiprocessing`` itself is unavailable
(restricted sandboxes).

The pool is either **resident** or **scoped to one run**:

- ``FleetExecutor(warm=True)``, used by the ``repro serve`` daemon,
  keeps one pool alive across campaigns, so fork/import/artifact-cache
  warm-up is paid once per worker instead of once per campaign;
- otherwise (one-shot CLI runs) each :meth:`FleetExecutor.run` opens a
  pool of ``min(workers, shards)`` processes and closes it on return.

Either way a crashed or timed-out worker is restarted in place and its
shard retried.

Any spec with ``shard(count)``, ``chaos`` and a ``report_class`` whose
``from_shards`` merges the results can ride the engine; each of its
shards carries ``index`` and ``campaign`` and runs itself with
``execute()``.  :class:`~repro.engine.spec.CampaignSpec` and
:class:`~repro.analysis.pipeline.AnalysisSpec` are the two kinds.

Results merge in shard-index order regardless of completion order, so
the merged stats honour the determinism contract of
:mod:`repro.engine.spec` for any worker count — and, with a
checkpoint journal attached, for any resume point: restored shard
results are byte-for-byte the ones the interrupted run recorded.
"""

from __future__ import annotations

import itertools
import os
import queue as queue_module
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.engine.merge import FleetReport, ShardResult
from repro.engine.progress import FleetProgress, NullProgress
from repro.engine.spec import CampaignSpec, ShardSpec, parse_chaos
from repro.errors import ReproError

_OK = "ok"
_ERROR = "error"
_CRASH = "crash"
_TIMEOUT = "timeout"
#: Maps a failure status to its executor fault counter.
_FAULT_KINDS = {_ERROR: "errors", _CRASH: "crashes", _TIMEOUT: "timeouts"}
#: Ceiling on one blocking wait in the pool loop.  The loop does not
#: poll at this cadence — results and worker deaths interrupt the wait
#: immediately (see :func:`wait_for_result`); the ceiling only bounds
#: how stale the timeout bookkeeping in ``reap_timeouts`` can get.
_IDLE_WAIT_SECONDS = 0.5

BACKENDS = ("auto", "process", "serial")


def default_workers() -> int:
    """Worker-count default: the machine's cores, capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


def run_shard(shard: ShardSpec, telemetry: bool = False,
              profile: bool = False) -> ShardResult:
    """Execute one shard in this process (the serial backend's unit).

    With ``telemetry=True`` the execution is bracketed by a
    :class:`repro.obs.runtime.TelemetryProbe` (rusage + perf_counter_ns)
    and the result carries a ``telemetry`` payload on the wall-clock
    side channel; with ``profile=True`` it additionally runs under
    cProfile and carries the marshaled profile blob.  Both default off,
    and the disabled path makes zero extra clock/rusage calls (pinned
    by ``tests/engine/test_telemetry.py``).  Neither ever touches the
    shard's deterministic stats/trace/metrics.
    """
    if not (telemetry or profile):
        return shard.execute()
    probe = None
    profiler = None
    if telemetry:
        from repro.obs.runtime import TelemetryProbe

        probe = TelemetryProbe.start()
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = shard.execute()
    finally:
        if profiler is not None:
            profiler.disable()
    if probe is not None:
        result.telemetry = probe.finish(shard.index).to_dict()
    if profiler is not None:
        from repro.obs.runtime import profile_blob

        result.profile = profile_blob(profiler)
    return result


def wait_for_result(result_queue, processes=(),
                    timeout: float = _IDLE_WAIT_SECONDS) -> bool:
    """Block until the result queue has data, a worker exits, or timeout.

    The scheduler's replacement for fixed-interval polling: it sleeps
    on the queue's underlying pipe and every worker's death sentinel at
    once (:func:`multiprocessing.connection.wait`), so a finished shard
    or a crashed worker wakes the parent immediately instead of after
    the next poll tick.  Returns True when the queue signalled readable
    (a ``get`` should now return promptly); False on a sentinel wake or
    timeout.  Queues without an inspectable pipe conservatively return
    True, degrading to the caller's timed ``get``.
    """
    reader = getattr(result_queue, "_reader", None)
    if reader is None:  # unexpected queue implementation
        return True
    from multiprocessing.connection import wait as connection_wait

    sentinels = [reader]
    for process in processes:
        sentinel = getattr(process, "sentinel", None)
        if sentinel is not None:
            sentinels.append(sentinel)
    try:
        ready = connection_wait(sentinels, timeout)
    except OSError:  # a sentinel closed under us: treat as a wake
        return True
    return reader in ready


def drain_queue(result_queue, handle: Callable[[object], None],
                timeout: float = _IDLE_WAIT_SECONDS) -> int:
    """Feed every queued message to ``handle``; return how many.

    The pool's drain step: block up to ``timeout`` for the first
    message, then sweep whatever else is already queued without
    blocking again.  Pairs with :func:`wait_for_result` — wait on the
    pipe and the worker sentinels, then drain — so a burst of shard
    completions is handled in one pass while a worker death never
    leaves the caller stuck in a blocking ``get``.
    """
    handled = 0
    block = timeout
    while True:
        try:
            message = result_queue.get(timeout=block)
        except queue_module.Empty:
            return handled
        handle(message)
        handled += 1
        block = 0.0


def multiprocessing_usable() -> bool:
    """Can this environment create process pools at all?

    Creating a queue exercises the semaphores and pipes that
    restricted sandboxes typically forbid.
    """
    try:
        import multiprocessing

        context = multiprocessing.get_context()
        probe = context.Queue()
        probe.close()
        probe.join_thread()
        return True
    except (ImportError, OSError, PermissionError):
        return False


def _warm_worker_entry(task_queue, result_queue) -> None:
    """Resident worker loop: run shards until a ``None`` sentinel.

    Failure injection (``spec.chaos``) lives here on purpose: only pool
    workers honour it, so the serial fallback always recovers.  The
    worker stays alive between tasks, so module imports and the
    content-addressed artifact caches built by earlier shards carry
    over to later ones.  Tasks are ``(seq, shard, telemetry,
    profile)``; messages are ``(seq, status, payload)``.

    A worker orphaned by a hard-killed parent (SIGKILL skips
    :meth:`WarmPool.close`) notices the reparenting on its next idle
    tick and exits instead of blocking on the task queue forever.
    """
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=5.0)
        except queue_module.Empty:
            if os.getppid() != parent:
                os._exit(0)  # orphaned: the parent is gone
            continue
        if task is None:
            break
        seq, shard, telemetry, profile = task
        try:
            mode, indices = parse_chaos(shard.campaign.chaos)
            if shard.index in indices and mode == "crash":
                os._exit(13)
            if shard.index in indices and mode == "hang":
                time.sleep(3600)
            if shard.index in indices and mode == "error":
                raise RuntimeError(f"injected error in shard {shard.index}")
            result = run_shard(shard, telemetry=telemetry, profile=profile)
            result.backend = "process"
            result_queue.put((seq, _OK, result))
        except BaseException as exc:  # pragma: no cover - failure-mode paths
            try:
                result_queue.put(
                    (seq, _ERROR, f"{type(exc).__name__}: {exc}"))
            except Exception:
                os._exit(14)


class _WarmWorker:
    """Parent-side handle on one resident worker process."""

    __slots__ = ("process", "task_queue")

    def __init__(self, process, task_queue) -> None:
        self.process = process
        self.task_queue = task_queue


class WarmPool:
    """A fixed set of resident shard workers, reusable across campaigns.

    Workers are forked once and then fed shards over per-worker queues;
    results come back on one shared queue.  Each submission gets a
    pool-wide sequence number the worker echoes back, so a result from
    an attempt already given up on (timed out, or its worker crashed)
    is never taken for a retry's result under the same ticket.  A dead
    worker (crash chaos, OOM, kill) is detected via its process
    sentinel, restarted in place, and its in-flight ticket is reported
    as a crash so the scheduler can retry the shard — ``restarts``
    counts every such replacement (the serve daemon exports it as the
    ``serve/worker_restarts`` metric).  ``close`` shuts the pool down
    deterministically: terminate busy workers (nobody will collect their
    results), sentinel idle ones, join, terminate stragglers — no
    leaked processes, pinned by the leak-check test.
    """

    def __init__(self, workers: int, context=None) -> None:
        if workers < 1:
            raise ReproError(f"warm pool needs workers >= 1, got {workers}")
        if context is None:
            import multiprocessing

            context = multiprocessing.get_context()
        self._context = context
        self.workers = workers
        self.result_queue = context.Queue()
        self.restarts = 0
        self.tasks_done = 0
        self._closed = False
        self._workers: Dict[int, _WarmWorker] = {}
        self._idle: List[int] = []
        #: seq -> (ticket, slot, monotonic start) of each task in flight.
        self._running: Dict[int, Tuple[int, int, float]] = {}
        self._seq = itertools.count()
        for slot in range(workers):
            self._spawn(slot)

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, slot: int) -> None:
        """(Re)create the worker in ``slot`` with a fresh task queue.

        A fresh queue per incarnation, so a task the dead worker popped
        but never finished cannot resurface in its replacement.
        """
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_warm_worker_entry,
            args=(task_queue, self.result_queue),
            name=f"fleet-warm-{slot}",
            daemon=True,
        )
        process.start()
        self._workers[slot] = _WarmWorker(process, task_queue)
        self._idle.append(slot)

    def _respawn(self, slot: int) -> None:
        if slot in self._idle:
            self._idle.remove(slot)
        self.restarts += 1
        self._spawn(slot)

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down; idempotent, never leaks a process."""
        if self._closed:
            return
        self._closed = True
        busy = {slot for _, slot, _ in self._running.values()}
        for slot, worker in self._workers.items():
            if slot in busy:
                worker.process.terminate()
                continue
            try:
                worker.task_queue.put(None)
            except Exception:  # queue already broken: terminate below
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
            worker.task_queue.close()
        self.result_queue.close()
        self._workers.clear()
        self._idle.clear()
        self._running.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    def has_idle(self) -> bool:
        """Is at least one worker free to take a task?"""
        return bool(self._idle)

    def busy(self) -> bool:
        """Is at least one task in flight?"""
        return bool(self._running)

    def worker_pids(self) -> Dict[int, int]:
        """Slot -> current worker PID (warm reuse is PID stability)."""
        return {slot: worker.process.pid
                for slot, worker in self._workers.items()}

    def earliest_start(self) -> Optional[float]:
        """Monotonic start of the oldest in-flight task, if any."""
        if not self._running:
            return None
        return min(started for _, _, started in self._running.values())

    # -- scheduling ------------------------------------------------------------

    def submit(self, ticket: int, shard: ShardSpec, telemetry: bool = False,
               profile: bool = False) -> None:
        """Hand ``shard`` to an idle worker under key ``ticket``.

        ``telemetry``/``profile`` ride along with the task so the
        worker brackets execution with the rusage probe / cProfile
        (see :func:`run_shard`); both default off.
        """
        if self._closed:
            raise ReproError("warm pool is closed")
        if not self._idle:
            raise ReproError("no idle warm worker; poll() first")
        slot = self._idle.pop()
        seq = next(self._seq)
        self._workers[slot].task_queue.put((seq, shard, telemetry, profile))
        self._running[seq] = (ticket, slot, time.monotonic())

    def poll(self, timeout: float = _IDLE_WAIT_SECONDS
             ) -> List[Tuple[int, str, object]]:
        """Collect finished/failed tickets, restarting dead workers.

        Blocks up to ``timeout`` on the result pipe plus every worker's
        death sentinel (:func:`wait_for_result`), drains whatever
        landed (:func:`drain_queue`), then sweeps for dead workers: an
        in-flight ticket whose worker died without reporting comes back
        as a ``crash`` event and the slot is respawned.  Returns
        ``(ticket, status, payload)`` tuples where status is ``ok``
        (payload: :class:`ShardResult`), ``error`` or ``crash``
        (payload: reason string).  A message whose sequence number is
        no longer in flight is dropped.
        """
        events: List[Tuple[int, str, object]] = []

        def handle(message) -> None:
            seq, status, payload = message
            entry = self._running.pop(seq, None)
            if entry is None:
                return  # stale: that attempt was reaped as timeout/crash
            ticket, slot, _ = entry
            self._idle.append(slot)
            self.tasks_done += 1
            events.append((ticket, status, payload))

        processes = [w.process for w in self._workers.values()]
        if wait_for_result(self.result_queue, processes, timeout):
            drain_queue(self.result_queue, handle, timeout=_IDLE_WAIT_SECONDS)
        for slot, worker in list(self._workers.items()):
            if worker.process.is_alive():
                continue
            # Its result may still be in flight: one final drain chance
            # before declaring the ticket crashed.
            drain_queue(self.result_queue, handle, timeout=0.1)
            dead = [seq for seq, (_, s, _) in self._running.items()
                    if s == slot]
            exitcode = worker.process.exitcode
            worker.process.join()
            self._respawn(slot)
            for seq in dead:
                ticket, _, _ = self._running.pop(seq)
                events.append(
                    (ticket, _CRASH,
                     f"worker crashed (exit code {exitcode})"))
        return events

    def reap_timeouts(self, shard_timeout: Optional[float]
                      ) -> List[Tuple[int, str, object]]:
        """Terminate workers whose task overran ``shard_timeout``.

        Each overrun worker is restarted and its ticket reported as a
        ``timeout`` event; None disables policing.
        """
        if shard_timeout is None:
            return []
        events: List[Tuple[int, str, object]] = []
        now = time.monotonic()
        for seq, (ticket, slot, started) in list(self._running.items()):
            if now - started <= shard_timeout:
                continue
            worker = self._workers[slot]
            worker.process.terminate()
            worker.process.join()
            del self._running[seq]
            self._respawn(slot)
            events.append((ticket, _TIMEOUT,
                           f"timeout after {shard_timeout:.1f}s"))
        return events


class FleetExecutor:
    """Shard a campaign spec, execute the shards, merge the results."""

    def __init__(self, workers: Optional[int] = None, backend: str = "auto",
                 shard_timeout: Optional[float] = None, max_retries: int = 2,
                 progress: Optional[FleetProgress] = None,
                 warm: bool = False, telemetry: bool = False,
                 profile_shards: bool = False) -> None:
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; valid: {BACKENDS}")
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.progress = progress if progress is not None else NullProgress()
        #: Keep a resident :class:`WarmPool` alive across ``run`` calls
        #: (the serve daemon's mode).  The pool is created lazily on the
        #: first pooled run and must be released with :meth:`close`.
        self.warm = warm
        #: Wall-clock plane switches (see :mod:`repro.obs.runtime`):
        #: both default off, and the off path adds zero clock/rusage
        #: calls to shard execution.
        self.telemetry = telemetry
        self.profile_shards = profile_shards
        self._pool: Optional[WarmPool] = None

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the warm pool (if any); idempotent, leak-free.

        One-shot pools close when their run returns, so this only
        matters for ``warm=True`` executors — but call it (or use the
        executor as a context manager) unconditionally: it makes
        shutdown deterministic for tests and the daemon alike.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> WarmPool:
        if self._pool is None or self._pool.closed:
            self._pool = WarmPool(self.workers)
        return self._pool

    # -- public API -----------------------------------------------------------

    def run(self, spec: CampaignSpec, shards: Optional[int] = None,
            checkpoint=None) -> FleetReport:
        """Run ``spec`` across the pool and return the merged report.

        ``checkpoint`` is an optional shard-completion journal (duck
        typed; see :class:`repro.serve.checkpoint.ShardJournal`): shards
        it has already recorded are restored instead of re-run, and
        every fresh completion is recorded before the fleet moves on —
        so a killed campaign resumes from its last completed shard and
        still merges to bit-identical stats.
        """
        started = time.perf_counter()
        shard_count = shards if shards is not None else self.workers
        shard_specs = spec.shard(shard_count)
        restored: Dict[int, ShardResult] = {}
        if checkpoint is not None:
            restored = checkpoint.restore(spec, len(shard_specs))
        todo = [shard for shard in shard_specs
                if shard.index not in restored]
        backend = self._resolve_backend()
        workers = 1 if backend == "serial" else min(self.workers,
                                                    len(todo) or 1)
        if self.warm and backend == "process":
            # The resident pool keeps its full complement: idle workers
            # stay warm for the next campaign instead of being resized.
            workers = self.workers
        total = len(shard_specs)
        self.progress.on_fleet_start(spec, total, workers, backend)
        counters = {"retries": 0, "timeouts": 0, "crashes": 0,
                    "errors": 0, "fallbacks": 0, "restored": len(restored)}
        results: Dict[int, ShardResult] = {}
        for index in sorted(restored):
            results[index] = restored[index]
            self.progress.on_shard_done(restored[index], len(results), total)
        on_result = None if checkpoint is None else checkpoint.record
        if backend == "serial":
            self._run_serial(todo, results, total, on_result)
        elif self.warm:
            self._run_process(self._ensure_pool(), todo, results, total,
                              counters, on_result)
        elif todo:
            with WarmPool(workers) as pool:
                self._run_process(pool, todo, results, total, counters,
                                  on_result)
        report = type(spec).report_class.from_shards(
            spec, list(results.values()),
            wall_seconds=time.perf_counter() - started,
            workers=workers, backend=backend,
            counters=counters,
        )
        self.progress.on_fleet_done(report)
        return report

    def _resolve_backend(self) -> str:
        if self.backend == "serial":
            return "serial"
        if self.backend == "auto" and self.workers <= 1:
            return "serial"
        if not multiprocessing_usable():
            # Graceful degradation: both "auto" and an explicit
            # "process" request fall back rather than fail.
            return "serial"
        return "process"

    # -- shared completion plumbing -------------------------------------------

    def _finish(self, result: ShardResult, results: Dict[int, ShardResult],
                total: int, on_result) -> None:
        """Record one completed shard: merge set, checkpoint, progress.

        The checkpoint write comes *before* the progress hook: once a
        shard has been announced as done, it must already be durable,
        or a kill landing right after the announcement would resume
        with fewer shards than an observer was told had finished.
        """
        results[result.shard_index] = result
        if on_result is not None:
            on_result(result)
        self.progress.on_shard_done(result, len(results), total)

    def _run_fallback(self, fallback: List[ShardSpec],
                      attempts: Dict[int, int],
                      results: Dict[int, ShardResult], total: int,
                      counters: Dict[str, int], on_result) -> None:
        """In-process serial rescue of shards the pool gave up on."""
        for shard in fallback:
            counters["fallbacks"] += 1
            attempts[shard.index] += 1
            self.progress.on_shard_start(shard, attempts[shard.index])
            result = run_shard(shard, telemetry=self.telemetry,
                               profile=self.profile_shards)
            result.attempts = attempts[shard.index]
            result.backend = "serial-fallback"
            self._finish(result, results, total, on_result)

    # -- serial backend -------------------------------------------------------

    def _run_serial(self, shard_specs: List[ShardSpec],
                    results: Dict[int, ShardResult], total: int,
                    on_result=None) -> None:
        for shard in shard_specs:
            self.progress.on_shard_start(shard, 1)
            result = run_shard(shard, telemetry=self.telemetry,
                               profile=self.profile_shards)
            self._finish(result, results, total, on_result)

    # -- process backend ------------------------------------------------------

    def _run_process(self, pool: WarmPool, shard_specs: List[ShardSpec],
                     results: Dict[int, ShardResult], total: int,
                     counters: Dict[str, int], on_result=None) -> None:
        """Schedule shards onto ``pool``: retry, police, fall back."""
        pending: Deque[ShardSpec] = deque(shard_specs)
        attempts: Dict[int, int] = {shard.index: 0 for shard in shard_specs}
        by_index: Dict[int, ShardSpec] = {shard.index: shard
                                          for shard in shard_specs}
        fallback: List[ShardSpec] = []
        while pending or pool.busy():
            while pending and pool.has_idle():
                shard = pending.popleft()
                attempts[shard.index] += 1
                self.progress.on_shard_start(shard, attempts[shard.index])
                pool.submit(shard.index, shard, telemetry=self.telemetry,
                            profile=self.profile_shards)
            events = pool.poll(self._warm_wait_timeout(pool))
            events += pool.reap_timeouts(self.shard_timeout)
            for ticket, status, payload in events:
                if status == _OK:
                    payload.attempts = attempts[ticket]
                    self._finish(payload, results, total, on_result)
                else:
                    self._retry(pending, fallback, attempts,
                                by_index[ticket], str(payload), counters,
                                _FAULT_KINDS[status])
        self._run_fallback(fallback, attempts, results, total, counters,
                           on_result)

    def _warm_wait_timeout(self, pool: WarmPool) -> float:
        """How long one blocking poll may last before timeouts are policed.

        With a shard timeout configured, the wait ends no later than
        the earliest running shard's deadline so overruns are policed
        on time; either way it is capped at :data:`_IDLE_WAIT_SECONDS`.
        """
        soonest = pool.earliest_start()
        if self.shard_timeout is None or soonest is None:
            return _IDLE_WAIT_SECONDS
        remaining = soonest + self.shard_timeout - time.monotonic()
        return max(0.0, min(_IDLE_WAIT_SECONDS, remaining))

    def _retry(self, pending, fallback, attempts, shard: ShardSpec,
               reason: str, counters: Dict[str, int], kind: str) -> None:
        counters[kind] += 1
        self.progress.on_shard_retry(shard, attempts[shard.index], reason)
        if attempts[shard.index] <= self.max_retries:
            counters["retries"] += 1
            pending.append(shard)
        else:
            fallback.append(shard)


def run_fleet(spec: CampaignSpec, shards: Optional[int] = None,
              workers: Optional[int] = None, backend: str = "auto",
              shard_timeout: Optional[float] = None, max_retries: int = 2,
              progress: Optional[FleetProgress] = None,
              checkpoint=None, telemetry: bool = False,
              profile_shards: bool = False) -> FleetReport:
    """One-call fleet execution (the ``python -m repro fleet`` engine)."""
    with FleetExecutor(
        workers=workers,
        backend=backend,
        shard_timeout=shard_timeout,
        max_retries=max_retries,
        progress=progress,
        telemetry=telemetry,
        profile_shards=profile_shards,
    ) as executor:
        return executor.run(spec, shards=shards, checkpoint=checkpoint)
