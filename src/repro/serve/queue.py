"""Deterministic priority job queue for the campaign service.

Scheduling order is a pure function of the submission stream: higher
``priority`` first, FIFO within a priority level (tie-broken by the
monotonic submission sequence number, never by wall clock), so the
same submissions always run in the same order.  Per-job seeds are
deterministic too — a submission that asks the service to pick a seed
gets one forked from the service seed by job sequence number
(:meth:`repro.sim.rand.DeterministicRandom.fork`), so a replayed
submission stream reproduces byte-identical campaigns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.serve.protocol import JOB_STATES, TERMINAL_STATES, stats_counters
from repro.sim.rand import DeterministicRandom

QUEUED, RUNNING, DONE, FAILED, CANCELLED = JOB_STATES


@dataclass
class Job:
    """One submitted campaign and everything the service knows about it."""

    job_id: str
    spec: CampaignSpec
    seq: int
    shards: Optional[int] = None
    priority: int = 0
    label: str = ""
    kind: str = "campaign"
    state: str = QUEUED
    error: str = ""
    #: ``(shards done, shards total)`` while running; final when done.
    progress: Tuple[int, int] = (0, 0)
    #: Flat stats counters once the job completes.
    summary: Optional[Dict[str, Any]] = None
    #: Executor fault/restore counters of the finished run.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock telemetry rollup of the job's shards (live while
    #: running, the report's on completion); None until a shard lands.
    #: Rides beside the deterministic summary/counters, never inside.
    telemetry: Optional[Dict[str, Any]] = None
    #: Monotonic submission time (service-local, never serialized):
    #: the scheduler derives queue-wait from it.
    submitted_at: float = 0.0

    @property
    def terminal(self) -> bool:
        """Has the job reached a state it can never leave?"""
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean wire form (the ``status``/``jobs`` payload)."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "kind": self.kind,
            "label": self.label,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "progress": list(self.progress),
            "summary": self.summary,
            "counters": dict(self.counters),
            "telemetry": dict(self.telemetry) if self.telemetry else None,
            "spec": self.spec.to_json_dict(),
            "shards": self.shards,
        }

    def finish(self, report) -> None:
        """Fold a finished :class:`FleetReport` into the job record."""
        self.state = DONE
        self.summary = stats_counters(report.stats)
        self.counters = dict(report.counters)
        self.progress = (len(report.shards), len(report.shards))


class JobQueue:
    """Priority FIFO over :class:`Job` with deterministic seed derivation.

    Not thread-safe by itself — the service serializes access under its
    own lock; this class stays a pure data structure so its ordering
    contract is testable in isolation.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0

    # -- submission ------------------------------------------------------------

    def derive_seed(self, seq: int) -> int:
        """The per-job seed of submission ``seq`` (pure function)."""
        return DeterministicRandom(self.seed).fork(f"job-{seq}").seed

    def submit(self, spec: CampaignSpec, shards: Optional[int] = None,
               priority: int = 0, label: str = "", kind: str = "campaign",
               derive_seed: bool = False,
               job_id: Optional[str] = None,
               seq: Optional[int] = None) -> Job:
        """Enqueue one campaign; returns the new :class:`Job`.

        ``job_id``/``seq`` are normally assigned here (``job-NNNNNN``
        from the sequence counter); the recovery path passes the
        journaled values back in so a restarted daemon re-creates the
        exact same jobs.
        """
        if seq is None:
            seq = self._seq + 1
        self._seq = max(self._seq, seq)
        if job_id is None:
            job_id = f"job-{seq:06d}"
        if job_id in self.jobs:
            raise ReproError(f"duplicate job id {job_id!r}")
        if derive_seed:
            spec = replace(spec, seed=self.derive_seed(seq))
        job = Job(job_id=job_id, spec=spec, seq=seq, shards=shards,
                  priority=priority, label=label, kind=kind)
        self.jobs[job_id] = job
        heapq.heappush(self._heap, (-priority, seq, job_id))
        return job

    def register_finished(self, job: Job) -> None:
        """Adopt an already-terminal job (recovery of completed work)."""
        if not job.terminal:
            raise ReproError(
                f"register_finished needs a terminal job, "
                f"got state {job.state!r}")
        if job.job_id in self.jobs:
            raise ReproError(f"duplicate job id {job.job_id!r}")
        self.jobs[job.job_id] = job
        self._seq = max(self._seq, job.seq)

    # -- scheduling ------------------------------------------------------------

    def pop(self) -> Optional[Job]:
        """Highest-priority queued job (FIFO within priority), or None.

        Cancelled entries are skipped lazily; the popped job is marked
        ``running``.
        """
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self.jobs.get(job_id)
            if job is None or job.state != QUEUED:
                continue
            job.state = RUNNING
            return job
        return None

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job; running/terminal jobs refuse."""
        job = self.get(job_id)
        if job.state != QUEUED:
            raise ReproError(
                f"job {job_id} is {job.state}; only queued jobs cancel")
        job.state = CANCELLED
        return job

    # -- introspection ---------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job called ``job_id`` (raises on unknown ids)."""
        job = self.jobs.get(job_id)
        if job is None:
            raise ReproError(f"unknown job {job_id!r}")
        return job

    def depth(self) -> int:
        """How many jobs are waiting to run."""
        return sum(1 for job in self.jobs.values() if job.state == QUEUED)

    def running(self) -> Optional[Job]:
        """The currently running job, if any."""
        for job in self.jobs.values():
            if job.state == RUNNING:
                return job
        return None

    def ordered(self) -> List[Job]:
        """Every known job in submission order."""
        return sorted(self.jobs.values(), key=lambda job: job.seq)

    def by_state(self) -> Dict[str, int]:
        """Job counts per lifecycle state (every state, zeros included)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts
