"""The resident campaign service: scheduler, executor glue, asyncio server.

Two layers, separable on purpose:

- :class:`CampaignService` is the synchronous, thread-safe core — the
  job queue, the **warm** :class:`~repro.engine.executor.FleetExecutor`
  (resident worker pool reused across jobs), the on-disk
  :class:`~repro.serve.checkpoint.JobStore`, and the ``serve/*``
  metrics.  It knows nothing about sockets, so tests drive it directly.
- :class:`ServeDaemon` wraps the service in an asyncio JSONL server
  (unix socket by default, local TCP optionally) speaking
  :mod:`repro.serve.protocol`, with a scheduler task that feeds queued
  jobs to the executor one at a time on a worker thread and streams
  shard-completion frames to ``watch`` subscribers as they land.

Crash recovery: every submission is journaled before it is
acknowledged and every terminal state is journaled after; a restarted
daemon replays the journal, re-enqueues unfinished jobs, and — because
each job checkpoints per-shard through a
:class:`~repro.serve.checkpoint.ShardJournal` — resumes them from
their last completed shard with bit-identical final stats.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro.durable import atomic_write
from repro.engine.executor import FleetExecutor
from repro.engine.progress import FleetProgress, NullProgress
from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.obs.export import trace_to_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import (
    FlightRecorder,
    TelemetryRollup,
    render_prometheus,
)
from repro.serve.checkpoint import JobStore, ShardJournal
from repro.serve.protocol import (
    Submission,
    decode_request,
    encode_message,
    error_response,
    event_frame,
    ok_response,
    parse_submission,
    stats_counters,
)
from repro.serve.queue import (
    CANCELLED,
    DONE,
    FAILED,
    Job,
    JobQueue,
    TERMINAL_STATES,
)

#: Stream-frame events that end a ``watch``.
TERMINAL_EVENTS = ("done", "failed", "cancelled")

#: How long an idle scheduler sleeps between queue checks when no
#: submission wake-up arrives (a robustness backstop, not the normal
#: wake path).
_SCHEDULER_IDLE_S = 0.25


class _JobProgress(FleetProgress):
    """Engine progress adapter: shard completions become stream frames.

    Folds each landed shard into a running merged-stats view (arrival
    order — a transient view; the final report re-merges in shard-index
    order, which is the deterministic one) and forwards it to the
    service's subscribers.
    """

    def __init__(self, service: "CampaignService", job: Job) -> None:
        self.service = service
        self.job = job
        self._merged = None

    def on_shard_done(self, result, done: int, total: int) -> None:
        from repro.core.campaign import CampaignStats

        if self._merged is None:
            self._merged = CampaignStats()
        self._merged = self._merged.merge(result.stats)
        self.service._on_shard_done(self.job, result, done, total,
                                    stats_counters(self._merged))


class CampaignService:
    """The daemon's synchronous core: queue + warm executor + store."""

    def __init__(self, state_dir, workers: Optional[int] = None,
                 backend: str = "auto", seed: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 telemetry: bool = True) -> None:
        self.store = JobStore(state_dir)
        self.queue = JobQueue(seed)
        #: Shard workers sample rusage/perf_counter_ns around each
        #: shard by default in service mode: the daemon is exactly the
        #: long-lived operational context the telemetry plane exists
        #: for.  ``telemetry=False`` restores the zero-overhead path.
        self.telemetry = telemetry
        self.executor = FleetExecutor(workers=workers, backend=backend,
                                      warm=True, telemetry=telemetry)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Bounded ops-event ring, file-backed in the state dir so the
        #: recent event history survives a SIGKILL/restart cycle.
        self.flight = FlightRecorder(path=self.store.flight_path())
        self._rollup = TelemetryRollup()
        self._job_rollups: Dict[str, TelemetryRollup] = {}
        self._lock = threading.RLock()
        self._listeners: Dict[str, List[Callable[[Dict[str, Any]], None]]] = {}
        self._started_at = time.monotonic()
        #: Called (thread-safely) after every accepted submission; the
        #: daemon points this at its scheduler wake-up.
        self.on_submit: Optional[Callable[[], None]] = None

    # -- recovery --------------------------------------------------------------

    def recover(self) -> int:
        """Replay the job journal; returns how many jobs were re-enqueued.

        Jobs with a terminal record are registered for status queries;
        jobs without one (the daemon died first) go back on the queue
        in their original order with their original ids, seeds and
        priorities, and will resume from their shard checkpoints.
        """
        submits: List[Dict[str, Any]] = []
        ends: Dict[str, Dict[str, Any]] = {}
        for record in self.store.read_journal():
            if record.get("event") == "submit":
                submits.append(record)
            elif record.get("event") == "end":
                ends[record.get("job_id")] = record
        requeued = 0
        with self._lock:
            for record in sorted(submits, key=lambda r: r.get("seq", 0)):
                job_id = record["job_id"]
                spec = CampaignSpec.from_json_dict(record["spec"])
                end = ends.get(job_id)
                if end is not None:
                    job = Job(
                        job_id=job_id, spec=spec, seq=record["seq"],
                        shards=record.get("shards"),
                        priority=record.get("priority", 0),
                        label=record.get("label", ""),
                        kind=record.get("kind", "campaign"),
                        state=end.get("state", DONE),
                        error=end.get("error", ""),
                        summary=end.get("summary"),
                        counters=end.get("counters") or {},
                    )
                    if job.state not in TERMINAL_STATES:
                        job.state = FAILED
                    self.queue.register_finished(job)
                    continue
                self.queue.submit(
                    spec, shards=record.get("shards"),
                    priority=record.get("priority", 0),
                    label=record.get("label", ""),
                    kind=record.get("kind", "campaign"),
                    job_id=job_id, seq=record["seq"],
                )
                requeued += 1
            if requeued:
                self.metrics.counter("serve/jobs_recovered").inc(requeued)
            self.flight.record("recover", requeued=requeued,
                               finished=len(ends))
        return requeued

    # -- submission / queue management -----------------------------------------

    def submit(self, submission: Submission) -> Job:
        """Journal and enqueue one submission; returns the new job."""
        with self._lock:
            job = self.queue.submit(
                submission.spec, shards=submission.shards,
                priority=submission.priority, label=submission.label,
                kind=submission.kind, derive_seed=submission.derive_seed,
            )
            # Journal the *post-derivation* spec: recovery must not
            # re-derive, or a restarted daemon could change a job's seed.
            self.store.append_journal({
                "event": "submit",
                "job_id": job.job_id,
                "seq": job.seq,
                "kind": job.kind,
                "label": job.label,
                "priority": job.priority,
                "shards": job.shards,
                "spec": job.spec.to_json_dict(),
            })
            self.metrics.counter("serve/jobs_submitted").inc()
            self.metrics.gauge("serve/queue_depth_peak").set(
                self.queue.depth())
            job.submitted_at = time.monotonic()
            self.flight.record("submit", job=job.job_id, job_kind=job.kind,
                               priority=job.priority)
        if self.on_submit is not None:
            self.on_submit()
        return job

    def try_pop(self) -> Optional[Job]:
        """Claim the next queued job for execution, if any."""
        with self._lock:
            job = self.queue.pop()
            if job is not None:
                self.flight.record("schedule", job=job.job_id,
                                   queue_depth=self.queue.depth())
            return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (journaled like any terminal state)."""
        with self._lock:
            job = self.queue.cancel(job_id)
            self._journal_end(job)
            self.metrics.counter("serve/jobs_cancelled").inc()
            self.flight.record("cancel", job=job.job_id)
            self._publish(job.job_id,
                          event_frame("cancelled", job=job.to_dict()))
        return job

    def get_job(self, job_id: str) -> Job:
        """One job's record (raises on unknown ids)."""
        with self._lock:
            return self.queue.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, submission order."""
        with self._lock:
            return self.queue.ordered()

    # -- execution -------------------------------------------------------------

    def execute(self, job: Job) -> None:
        """Run one claimed job to a terminal state (blocking).

        Called from the scheduler's worker thread.  The job checkpoints
        every shard through its :class:`ShardJournal`, so dying here
        (or being killed) loses at most the in-flight shards.
        """
        spec = job.spec
        shard_count = (job.shards if job.shards is not None
                       else self.executor.workers)
        journal = ShardJournal(self.store.checkpoint_dir(job.job_id),
                               spec, shard_count)
        restarts_before = self.pool_restarts()
        queue_wait = (max(0.0, time.monotonic() - job.submitted_at)
                      if job.submitted_at else 0.0)
        with self._lock:
            self.metrics.gauge("serve/queue_depth_peak").set(
                self.queue.depth())
            self.flight.record("start", job=job.job_id, shards=shard_count,
                               queue_wait_s=round(queue_wait, 3))
            if self.telemetry:
                rollup = self._job_rollups.setdefault(job.job_id,
                                                      TelemetryRollup())
                rollup.queue_wait_s += queue_wait
                self._rollup.queue_wait_s += queue_wait
        self.executor.progress = _JobProgress(self, job)
        try:
            report = self.executor.run(spec, shards=shard_count,
                                       checkpoint=journal)
        except Exception as exc:
            with self._lock:
                job.state = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                self._journal_end(job)
                self.metrics.counter("serve/jobs_failed").inc()
                self._account_restarts(restarts_before)
                self.flight.record("crash", job=job.job_id, error=job.error)
                self._publish(job.job_id,
                              event_frame("failed", job=job.to_dict()))
            return
        finally:
            self.executor.progress = NullProgress()
        if spec.observe:
            trace_path = self.store.trace_path(job.job_id)
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(trace_path, trace_to_jsonl(
                report.trace_records()).encode(), durable=False)
        with self._lock:
            job.finish(report)
            self.store.write_result(job.job_id, {
                "job_id": job.job_id,
                "state": job.state,
                "stats": job.summary,
                "counters": job.counters,
                "telemetry": job.telemetry,
                "shards": len(report.shards),
                "workers": report.workers,
                "backend": report.backend,
                "wall_seconds": report.wall_seconds,
                "render": report.render(),
            })
            self._journal_end(job)
            self.metrics.counter("serve/jobs_completed").inc()
            self._account_restarts(restarts_before)
            self.flight.record("finish", job=job.job_id,
                               shards=len(report.shards),
                               wall_s=round(report.wall_seconds, 3))
            self._publish(job.job_id, event_frame("done", job=job.to_dict()))

    def _journal_end(self, job: Job) -> None:
        self.store.append_journal({
            "event": "end",
            "job_id": job.job_id,
            "state": job.state,
            "error": job.error,
            "summary": job.summary,
            "counters": job.counters,
        })

    def pool_restarts(self) -> int:
        """Cumulative warm-pool worker restarts so far."""
        pool = self.executor._pool
        return pool.restarts if pool is not None else 0

    def _account_restarts(self, before: int) -> None:
        delta = self.pool_restarts() - before
        if delta > 0:
            self.metrics.counter("serve/worker_restarts").inc(delta)

    def _on_shard_done(self, job: Job, result, done: int, total: int,
                       merged_counters: Dict[str, int]) -> None:
        with self._lock:
            job.progress = (done, total)
            self.metrics.counter("serve/shards_completed").inc()
            payload = result.telemetry
            if payload:
                rollup = self._job_rollups.setdefault(job.job_id,
                                                      TelemetryRollup())
                rollup.add(payload)
                self._rollup.add(payload)
                job.telemetry = rollup.to_dict()
                self.metrics.histogram("serve/shard_wall_ms").observe(
                    max(0, int(payload.get("wall_ns", 0)) // 1_000_000))
                self.metrics.histogram("serve/shard_cpu_ms").observe(
                    max(0, int((float(payload.get("cpu_user_s", 0.0))
                                + float(payload.get("cpu_system_s", 0.0)))
                               * 1000)))
                self.metrics.histogram("serve/shard_rss_kb").observe(
                    max(0, int(payload.get("max_rss_kb", 0))))
            self.flight.record("checkpoint", job=job.job_id,
                               shard=result.shard_index, done=done,
                               total=total)
            self._publish(job.job_id, event_frame(
                "shard",
                job_id=job.job_id,
                shard=result.shard_index,
                done=done,
                total=total,
                stats=merged_counters,
                telemetry=payload,
            ))

    # -- streaming -------------------------------------------------------------

    def subscribe(self, job_id: str,
                  listener: Callable[[Dict[str, Any]], None]) -> Job:
        """Register a frame listener; returns the job snapshot atomically.

        Registration and snapshot happen under one lock hold, so a
        frame published right after cannot be missed: either it is in
        the snapshot's state or the listener receives it.
        """
        with self._lock:
            job = self.queue.get(job_id)
            self._listeners.setdefault(job_id, []).append(listener)
            return job

    def unsubscribe(self, job_id: str,
                    listener: Callable[[Dict[str, Any]], None]) -> None:
        """Remove a previously registered frame listener."""
        with self._lock:
            listeners = self._listeners.get(job_id, [])
            if listener in listeners:
                listeners.remove(listener)
            if not listeners:
                self._listeners.pop(job_id, None)

    def _publish(self, job_id: str, frame: Dict[str, Any]) -> None:
        for listener in self._listeners.get(job_id, []):
            listener(frame)

    # -- health ----------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness and load summary (the ``health`` op's payload)."""
        with self._lock:
            running = self.queue.running()
            counters = {
                name: self.metrics.counter(f"serve/{name}").value
                for name in ("jobs_submitted", "jobs_completed",
                             "jobs_failed", "jobs_cancelled",
                             "jobs_recovered", "shards_completed",
                             "worker_restarts")
            }
            pool = self.executor._pool
            worker_pids = ({str(slot): pid for slot, pid
                            in sorted(pool.worker_pids().items())}
                           if pool is not None and not pool.closed else {})
            return {
                "ok": True,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "queue_depth": self.queue.depth(),
                "running": running.job_id if running is not None else None,
                "workers": self.executor.workers,
                "backend": self.executor.backend,
                "warm_pool": self.executor._pool is not None,
                "worker_pids": worker_pids,
                "jobs_by_state": self.queue.by_state(),
                "telemetry": (self._rollup.to_dict()
                              if self._rollup.shards else None),
                "state_dir": str(self.store.state_dir),
                **counters,
            }

    # -- telemetry exposition --------------------------------------------------

    def prometheus(self) -> str:
        """Prometheus text exposition (the ``metrics`` op's payload).

        Renders the ``serve/*`` registry (counters, gauges and the
        per-shard wall/CPU/RSS histograms) plus the wall-clock
        telemetry rollups, service-wide and per job.  Composed under
        the service lock so the scrape is a consistent snapshot.
        """
        with self._lock:
            snapshot = self.metrics.snapshot()
            rollup = (self._rollup.to_dict()
                      if self._rollup.shards or self._rollup.queue_wait_s
                      else None)
            job_rollups = {job_id: fold.to_dict()
                           for job_id, fold in self._job_rollups.items()
                           if fold.shards}
            gauges = {
                "serve/uptime_seconds":
                    round(time.monotonic() - self._started_at, 3),
                "serve/queue_depth": self.queue.depth(),
                "serve/warm_workers":
                    len(self.executor._pool.worker_pids())
                    if (self.executor._pool is not None
                        and not self.executor._pool.closed) else 0,
                "serve/flight_events": self.flight.recorded,
                "serve/flight_dropped": self.flight.dropped,
            }
        return render_prometheus(snapshot, rollup=rollup,
                                 job_rollups=job_rollups, gauges=gauges)

    def flight_snapshot(self) -> Dict[str, Any]:
        """The flight recorder's ring (the ``flight`` op's payload)."""
        with self._lock:
            return self.flight.snapshot()

    def job_telemetry(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's wall-clock rollup (live or final), if any."""
        with self._lock:
            fold = self._job_rollups.get(job_id)
            if fold is not None and fold.shards:
                return fold.to_dict()
            return self.queue.get(job_id).telemetry

    def close(self) -> None:
        """Shut the warm pool down deterministically (idempotent)."""
        self.executor.close()


class ServeDaemon:
    """Asyncio JSONL front-end over a :class:`CampaignService`."""

    def __init__(self, service: CampaignService,
                 socket_path: Optional[Union[str, "os.PathLike"]] = None,
                 host: Optional[str] = None,
                 port: Optional[int] = None) -> None:
        self.service = service
        if socket_path is None and port is None:
            socket_path = service.store.default_socket_path()
        self.socket_path = str(socket_path) if socket_path else None
        self.host = host if host is not None else "127.0.0.1"
        self.port = port
        self._stop: Optional[asyncio.Event] = None
        self._wake: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------------

    async def serve_forever(self,
                            ready: Optional[threading.Event] = None) -> None:
        """Accept connections and run jobs until ``shutdown`` (or stop()).

        ``ready`` (a *threading* event) is set once the socket is
        listening and the scheduler is live — what ``repro serve``
        scripts and the tests wait on.
        """
        import os

        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        self.service.on_submit = (
            lambda: loop.call_soon_threadsafe(self._wake.set))
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a kill -9
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path)
        else:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port or 0)
            self.port = server.sockets[0].getsockname()[1]
        scheduler = loop.create_task(self._scheduler(loop))
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            self._wake.set()
            await scheduler
            self.service.close()
            if self.socket_path is not None and os.path.exists(
                    self.socket_path):
                os.unlink(self.socket_path)

    def stop(self) -> None:
        """Request shutdown (safe from signal handlers on the loop)."""
        if self._stop is not None:
            self._stop.set()

    async def _scheduler(self, loop) -> None:
        """Feed queued jobs to the executor, one at a time, off-loop.

        One job at a time keeps the warm pool's full width available
        to the running campaign's shards; job-level throughput comes
        from pool reuse, not job overlap.
        """
        while not self._stop.is_set():
            job = self.service.try_pop()
            if job is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(),
                                           timeout=_SCHEDULER_IDLE_S)
                except asyncio.TimeoutError:
                    pass
                continue
            await loop.run_in_executor(None, self.service.execute, job)

    # -- connection handling ---------------------------------------------------

    async def _write(self, writer: asyncio.StreamWriter,
                     message: Dict[str, Any]) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                message = decode_request(line)
            except ReproError as exc:
                await self._write(writer, error_response(str(exc)))
                return
            try:
                await self._dispatch(message, writer)
            except ReproError as exc:
                await self._write(writer, error_response(str(exc)))
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-reply; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, message: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        op = message["op"]
        if op == "submit":
            job = self.service.submit(parse_submission(message))
            await self._write(writer, ok_response(job=job.to_dict()))
        elif op == "status":
            job = self.service.get_job(self._job_id(message))
            await self._write(writer, ok_response(job=job.to_dict()))
        elif op == "jobs":
            await self._write(writer, ok_response(
                jobs=[job.to_dict() for job in self.service.jobs()],
                health=self.service.health()))
        elif op == "health":
            await self._write(writer, ok_response(
                health=self.service.health()))
        elif op == "cancel":
            job = self.service.cancel(self._job_id(message))
            await self._write(writer, ok_response(job=job.to_dict()))
        elif op == "trace":
            job = self.service.get_job(self._job_id(message))
            path = self.service.store.trace_path(job.job_id)
            await self._write(writer, ok_response(
                job_id=job.job_id, path=str(path), exists=path.exists()))
        elif op == "metrics":
            await self._write(writer, ok_response(
                exposition=self.service.prometheus()))
        elif op == "flight":
            await self._write(writer, ok_response(
                flight=self.service.flight_snapshot()))
        elif op == "watch":
            await self._watch(self._job_id(message), writer)
        elif op == "shutdown":
            await self._write(writer, ok_response(stopping=True))
            self.stop()

    @staticmethod
    def _job_id(message: Dict[str, Any]) -> str:
        job_id = message.get("job")
        if not isinstance(job_id, str) or not job_id:
            raise ReproError("request is missing its 'job' id")
        return job_id

    async def _watch(self, job_id: str,
                     writer: asyncio.StreamWriter) -> None:
        """Stream shard frames for one job until it reaches a terminal.

        The first frame is always a ``status`` snapshot; an
        already-terminal job gets its terminal frame immediately.
        """
        loop = asyncio.get_running_loop()
        frames: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()

        def listener(frame: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(frames.put_nowait, frame)

        job = self.service.subscribe(job_id, listener)
        try:
            await self._write(writer,
                              event_frame("status", job=job.to_dict()))
            if job.terminal:
                event = {DONE: "done", FAILED: "failed",
                         CANCELLED: "cancelled"}[job.state]
                await self._write(writer,
                                  event_frame(event, job=job.to_dict()))
                return
            while True:
                frame = await frames.get()
                await self._write(writer, frame)
                if frame.get("event") in TERMINAL_EVENTS:
                    return
        finally:
            self.service.unsubscribe(job_id, listener)


def run_daemon(state_dir, socket_path=None, host=None, port=None,
               workers: Optional[int] = None, backend: str = "auto",
               seed: int = 0, telemetry: bool = True,
               on_ready: Optional[Callable[["ServeDaemon"], None]] = None
               ) -> int:
    """Build, recover and run a daemon until shutdown (the CLI engine).

    Returns 0 on a clean stop.  SIGTERM/SIGINT trigger the same
    graceful path as the ``shutdown`` op: finish the running job,
    close the warm pool, remove the socket.
    """
    import signal

    service = CampaignService(state_dir, workers=workers, backend=backend,
                              seed=seed, telemetry=telemetry)
    requeued = service.recover()
    daemon = ServeDaemon(service, socket_path=socket_path, host=host,
                         port=port)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, daemon.stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or exotic platform
        ready: threading.Event = threading.Event()
        task = loop.create_task(daemon.serve_forever(ready))
        while not ready.is_set():
            await asyncio.sleep(0.01)
        if on_ready is not None:
            on_ready(daemon)
        await task

    asyncio.run(_main())
    return 0 if requeued >= 0 else 1
