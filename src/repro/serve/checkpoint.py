"""Shard-completion journal and on-disk job store for ``repro serve``.

:class:`ShardJournal` is the campaign service's crash-survival story:
every completed shard's :class:`~repro.engine.spec.ShardResult` is
appended to a durable record log, after a header naming the campaign,
the moment it lands.  A killed campaign resumed from the journal
re-runs only the missing shards, and because per-shard results are
deterministic and the engine merges in shard-index order, the resumed
run's merged stats are **bit-identical** — and its trace JSONL
**byte-identical** — to an uninterrupted run of the same seed (pinned
by ``tests/serve/test_resume.py``).

:class:`JobStore` is the daemon's state-directory layout: the durable
job journal (``jobs.log``), per-job directories holding the checkpoint
journal, the archived trace, and the final result.  Older layouts
(``manifest.json``, ``jobs.jsonl``) are refused, never ignored.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.durable import RecordLog, atomic_write
from repro.engine.spec import CampaignSpec, ShardResult
from repro.errors import ReproError
from repro.obs.export import canonical_json

#: Bumped when the journal layout or the pickle payload shape changes;
#: a journal written by another version is refused, never misread.
JOURNAL_VERSION = 3


def _refuse_legacy(path: Path) -> None:
    if path.exists():
        raise ReproError(f"{path} is from an older build; this build "
                         f"speaks journal version {JOURNAL_VERSION}")


def job_key(spec: CampaignSpec, shard_count: int) -> str:
    """Content key of one ``(spec, shard layout)`` pair (16 hex chars).

    Derived from the spec's canonical JSON, so two campaigns with equal
    specs and shard counts share a key and a resumed run can verify it
    is reading *its own* journal.
    """
    material = (f"{spec.canonical_json()}|shards={shard_count}"
                f"|v{JOURNAL_VERSION}")
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class ShardJournal:
    """Shard-completion journal for one campaign: one durable record log.

    Plugs into :meth:`repro.engine.executor.FleetExecutor.run` via its
    ``checkpoint`` parameter: ``record`` is called as each shard result
    lands (before the fleet moves on), ``restore`` is called at the
    start of a run to recover completed shards.  The log's sha256
    frames are the only integrity check: a torn or corrupt record is
    simply dropped, so the worst case of on-disk damage is re-running a
    shard, never merging bad data.
    """

    def __init__(self, root: Union[str, Path], spec: CampaignSpec,
                 shard_count: int) -> None:
        if shard_count < 1:
            raise ReproError(
                f"checkpoint shard count must be >= 1, got {shard_count}")
        self.root = Path(root)
        self.spec = spec
        self.shard_count = shard_count
        self.key = job_key(spec, shard_count)
        self._header = canonical_json({"version": JOURNAL_VERSION,
                                       "job_key": self.key,
                                       "shards": shard_count}).encode()
        self._log: Optional[RecordLog] = None

    def _results(self) -> List[bytes]:
        """The result payloads of the log, after checking its header."""
        if self._log is None:
            _refuse_legacy(self.root / "manifest.json")
            self._log = RecordLog(self.root / "shards.log", durable=True)
        records = self._log.records()
        if records and records[0] != self._header:
            raise ReproError(
                f"checkpoint {self.root} belongs to a different campaign "
                f"or journal version (header {records[0][:160]!r}; this "
                f"build speaks journal version {JOURNAL_VERSION}, job key "
                f"{self.key!r}); point --checkpoint at a fresh directory")
        return records[1:]

    # -- journal API (the executor's checkpoint duck type) ---------------------

    def record(self, result: ShardResult) -> None:
        """Durably append one completed shard (the first with the header)."""
        if not 0 <= result.shard_index < self.shard_count:
            raise ReproError(
                f"shard index {result.shard_index} outside the journal's "
                f"{self.shard_count}-shard layout")
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        if self._log is None:
            self._results()  # refuses a foreign log before writing to it
        if self._log.end:
            self._log.append(payload)
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            self._log.append(self._header, payload)

    def restore(self, spec: CampaignSpec,
                shard_count: int) -> Dict[int, ShardResult]:
        """Load every intact completed shard; empty dict when none.

        Called by the executor with the campaign it is about to run;
        a journal recorded for a different spec or layout raises
        instead of silently resuming the wrong campaign.
        """
        if job_key(spec, shard_count) != self.key:
            raise ReproError(
                "checkpoint journal was opened for a different campaign "
                "than the one being run")
        restored: Dict[int, ShardResult] = {}
        for payload in self._results():
            try:
                result = pickle.loads(payload)
            except Exception:
                continue  # unpicklable: re-run the shard
            if (isinstance(result, ShardResult)
                    and 0 <= result.shard_index < shard_count):
                restored[result.shard_index] = result
        return restored

    def completed_indices(self) -> List[int]:
        """Shard indices the log currently holds, sorted."""
        return sorted(self.restore(self.spec, self.shard_count))


class JobStore:
    """The serve daemon's state directory.

    Layout (all under ``state_dir``)::

        jobs.log                        durable submit/end record log
        flight.log                      flight recorder sidecar
        jobs/<job_id>/checkpoint/       ShardJournal of the job
        jobs/<job_id>/trace.jsonl       archived trace (observe=True)
        jobs/<job_id>/result.json       final stats + render

    The journal is how a restarted daemon knows what it owes: a job
    with a ``submit`` record and no terminal record is re-enqueued and
    resumed from its checkpoint.
    """

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        _refuse_legacy(self.state_dir / "jobs.jsonl")
        self._journal = RecordLog(self.journal_path, durable=True)

    # -- paths -----------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        """The job journal's record log."""
        return self.state_dir / "jobs.log"

    def default_socket_path(self) -> Path:
        """Where ``repro serve`` listens unless told otherwise."""
        return self.state_dir / "serve.sock"

    def flight_path(self) -> Path:
        """The daemon flight recorder's record-log sidecar.

        File-backed so the ops-event ring survives a SIGKILL: the
        restarted daemon reloads it and still knows what its
        predecessor was doing (see
        :class:`repro.obs.runtime.FlightRecorder`).
        """
        return self.state_dir / "flight.log"

    def job_dir(self, job_id: str) -> Path:
        """Per-job artifact directory (created on demand)."""
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ReproError(f"invalid job id {job_id!r}")
        return self.state_dir / "jobs" / job_id

    def checkpoint_dir(self, job_id: str) -> Path:
        """The job's shard-journal directory."""
        return self.job_dir(job_id) / "checkpoint"

    def trace_path(self, job_id: str) -> Path:
        """The job's archived trace JSONL."""
        return self.job_dir(job_id) / "trace.jsonl"

    def result_path(self, job_id: str) -> Path:
        """The job's final result JSON."""
        return self.job_dir(job_id) / "result.json"

    # -- job journal -----------------------------------------------------------

    def append_journal(self, record: Dict[str, Any]) -> None:
        """Append one event record (``submit``/``end``/...) durably."""
        self._journal.append(canonical_json(record).encode())

    def read_journal(self) -> List[Dict[str, Any]]:
        """Every intact journal record in append order (empty when absent).

        A record torn by a kill is dropped, and the next append cuts it.
        """
        return [json.loads(payload) for payload in self._journal.records()]

    # -- results ---------------------------------------------------------------

    def write_result(self, job_id: str, payload: Dict[str, Any]) -> Path:
        """Atomically and durably write the job's final result JSON."""
        path = self.result_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        atomic_write(path, text.encode("utf-8"), durable=True)
        return path

    def read_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's final result JSON, or None before completion."""
        path = self.result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))
