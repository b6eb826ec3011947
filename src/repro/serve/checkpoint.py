"""Shard-completion journal and on-disk job store for ``repro serve``.

:class:`ShardJournal` is the campaign service's crash-survival story:
every completed shard's :class:`~repro.engine.spec.ShardResult` is
written to a content-addressed file the moment it lands, with a
manifest naming which shards are done.  A killed campaign resumed from
the journal re-runs only the missing shards, and because per-shard
results are deterministic and the engine merges in shard-index order,
the resumed run's merged stats are **bit-identical** — and its trace
JSONL **byte-identical** — to an uninterrupted run of the same seed
(pinned by ``tests/serve/test_resume.py``).

:class:`JobStore` is the daemon's state-directory layout: the
append-only job journal (``jobs.jsonl``), per-job directories holding
the checkpoint journal, the archived trace, and the final result.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine.spec import CampaignSpec, ShardResult
from repro.errors import ReproError
from repro.obs.export import append_jsonl, read_jsonl

#: Bumped when the journal layout or the pickle payload shape changes;
#: a journal written by another version is refused, never misread.
JOURNAL_VERSION = 2

_MANIFEST = "manifest.json"


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory rename.

    The rename is atomic on POSIX, so a reader (or a crash) sees either
    the old file or the new one — never a torn write.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


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
    """Content-addressed shard-completion journal for one campaign.

    Plugs into :meth:`repro.engine.executor.FleetExecutor.run` via its
    ``checkpoint`` parameter: ``record`` is called as each shard result
    lands (before the fleet moves on), ``restore`` is called at the
    start of a run to recover completed shards.  Restoration verifies
    each payload's SHA-256 before trusting it; a corrupt or missing
    shard file is simply dropped, so the worst case of on-disk damage
    is re-running a shard, never merging bad data.
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

    # -- manifest --------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"checkpoint manifest {path} is unreadable: {exc}") from exc
        if manifest.get("version") != JOURNAL_VERSION:
            raise ReproError(
                f"checkpoint {self.root} has journal version "
                f"{manifest.get('version')!r}; this build speaks "
                f"{JOURNAL_VERSION}")
        if manifest.get("job_key") != self.key:
            raise ReproError(
                f"checkpoint {self.root} belongs to a different campaign "
                f"(job key {manifest.get('job_key')!r}, expected "
                f"{self.key!r}); point --checkpoint at a fresh directory")
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        _atomic_write(self._manifest_path(), payload.encode("utf-8"))

    def _fresh_manifest(self) -> Dict[str, Any]:
        return {
            "version": JOURNAL_VERSION,
            "job_key": self.key,
            "spec": self.spec.to_json_dict(),
            "shards": self.shard_count,
            "completed": {},
        }

    # -- journal API (the executor's checkpoint duck type) ---------------------

    def record(self, result: ShardResult) -> None:
        """Durably record one completed shard (idempotent per index).

        The payload file is content-addressed by its SHA-256, written
        atomically, and only then named in the manifest — a crash
        between the two leaves an orphan file, never a manifest entry
        pointing at garbage.
        """
        if not 0 <= result.shard_index < self.shard_count:
            raise ReproError(
                f"shard index {result.shard_index} outside the journal's "
                f"{self.shard_count}-shard layout")
        manifest = self._read_manifest() or self._fresh_manifest()
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        name = f"shard-{result.shard_index:05d}-{digest[:12]}.bin"
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.root / name, payload)
        manifest["completed"][str(result.shard_index)] = {
            "file": name,
            "sha256": digest,
            "attempts": result.attempts,
            "backend": result.backend,
        }
        self._write_manifest(manifest)

    def restore(self, spec: CampaignSpec,
                shard_count: int) -> Dict[int, ShardResult]:
        """Load every verified completed shard; empty dict when none.

        Called by the executor with the campaign it is about to run;
        a journal recorded for a different spec or layout raises
        instead of silently resuming the wrong campaign.
        """
        if job_key(spec, shard_count) != self.key:
            raise ReproError(
                "checkpoint journal was opened for a different campaign "
                "than the one being run")
        manifest = self._read_manifest()
        if manifest is None:
            return {}
        restored: Dict[int, ShardResult] = {}
        for index_text, entry in manifest.get("completed", {}).items():
            index = int(index_text)
            path = self.root / entry["file"]
            try:
                payload = path.read_bytes()
            except OSError:
                continue  # missing file: re-run the shard
            if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
                continue  # corrupt file: re-run the shard
            try:
                result = pickle.loads(payload)
            except Exception:
                continue  # unpicklable: re-run the shard
            if (not isinstance(result, ShardResult)
                    or result.shard_index != index):
                continue
            restored[index] = result
        return restored

    def completed_indices(self) -> List[int]:
        """Shard indices the manifest currently names, sorted."""
        manifest = self._read_manifest()
        if manifest is None:
            return []
        return sorted(int(index) for index in manifest.get("completed", {}))


class JobStore:
    """The serve daemon's state directory.

    Layout (all under ``state_dir``)::

        jobs.jsonl                      append-only submit/done journal
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

    # -- paths -----------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        """The append-only job journal."""
        return self.state_dir / "jobs.jsonl"

    def default_socket_path(self) -> Path:
        """Where ``repro serve`` listens unless told otherwise."""
        return self.state_dir / "serve.sock"

    def flight_path(self) -> Path:
        """The daemon flight recorder's JSONL sidecar.

        File-backed so the ops-event ring survives a SIGKILL: the
        restarted daemon reloads it and still knows what its
        predecessor was doing (see
        :class:`repro.obs.runtime.FlightRecorder`).
        """
        return self.state_dir / "flight.jsonl"

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
        """Append one event record (``submit``/``done``/...) durably."""
        append_jsonl(self.journal_path, record, durable=True)

    def read_journal(self) -> List[Dict[str, Any]]:
        """Every journal record in append order (empty when absent).

        A torn line (daemon killed mid-append) is dropped rather than
        poisoning recovery; the next append starts on a fresh line, so
        it never takes a later record down with it.
        """
        return read_jsonl(self.journal_path)

    # -- results ---------------------------------------------------------------

    def write_result(self, job_id: str, payload: Dict[str, Any]) -> Path:
        """Atomically write the job's final result JSON."""
        path = self.result_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        _atomic_write(path, text.encode("utf-8"))
        return path

    def read_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's final result JSON, or None before completion."""
        path = self.result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))
