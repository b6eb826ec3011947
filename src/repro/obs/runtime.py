"""Wall-clock runtime telemetry: the operational plane of the stack.

Everything in :mod:`repro.obs.metrics` and :mod:`repro.obs.trace` is
*simulated*-time and deterministic; none of it can tell an operator how
much real CPU a shard burned, how big a worker's RSS grew, or what the
serve daemon was doing when it was SIGKILLed.  This module is the
other clock: a strictly separated wall-clock plane that rides **beside**
the deterministic artifacts and is never folded into them — every
shard samples it, and golden traces, merged stats and metric snapshots
stay byte/bit-identical (pinned by ``tests/engine/test_golden.py``).

Four pieces:

- :class:`ShardTelemetry` — per-shard resource accounting.
  :meth:`~repro.engine.spec.ShardSlice.execute` takes one
  ``time.perf_counter_ns`` and one :func:`rusage_now` pair around every
  shard, always, and ships the delta back as a small picklable record
  next to the shard result; the clock pair is also the result's
  ``wall_seconds``.  A ``getrusage`` costs about a microsecond, so
  there is no switch to turn it off.
- :class:`TelemetryRollup` — the associative fold of shard telemetry
  into per-job and per-service aggregates (CPU seconds, max RSS, wall
  time, shard/retry counts).  ``add`` and ``merge`` are associative
  with :func:`TelemetryRollup` () as identity, mirroring the metrics
  snapshot fold.
- :class:`FlightRecorder` — a bounded ring buffer of structured ops
  events (submit/schedule/start/finish/crash/checkpoint/recover) with
  overflow counting.  Optionally file-backed: each event is appended
  to a :mod:`repro.durable` record log and reloaded on construction,
  so the recorder survives a SIGKILL and the restarted daemon still
  knows what its predecessor was doing.
- Prometheus text exposition — :func:`render_prometheus` renders a
  metrics snapshot plus telemetry rollups in exposition format 0.0.4;
  :func:`validate_exposition` is the syntax checker CI scrapes a live
  daemon with.

Plus the profiling sidecar: :func:`profile_blob` serializes one
worker's cProfile run and :func:`merged_hotspots` merges any number of
those blobs into one deterministically ordered hotspot table (the
``--profile-shards`` flag on ``repro fleet`` / ``repro analyze``).
"""

from __future__ import annotations

import json
import marshal
import os
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

from repro.durable import RecordLog, atomic_write, frame
from repro.errors import ReproError
from repro.obs.export import canonical_json

try:  # POSIX-only; Windows ships without resource
    import resource as _resource_module
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource_module = None

__all__ = [
    "FlightRecorder",
    "ShardTelemetry",
    "TelemetryRollup",
    "host_metadata",
    "merged_hotspots",
    "profile_blob",
    "prometheus_name",
    "render_prometheus",
    "rusage_now",
    "validate_exposition",
]


def rusage_now():
    """This process's rusage (RUSAGE_SELF); None without ``resource``."""
    if _resource_module is None:  # pragma: no cover - non-POSIX
        return None
    return _resource_module.getrusage(_resource_module.RUSAGE_SELF)


def _max_rss_kb(ru_maxrss: int) -> int:
    """Normalize ``ru_maxrss`` to kilobytes (macOS reports bytes)."""
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return ru_maxrss // 1024
    return ru_maxrss


def host_metadata() -> Dict[str, Any]:
    """Host facts stamped into each benchmark result.

    Cross-machine perf numbers are uninterpretable without these.
    """
    import platform

    return {
        "cpus": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# per-shard resource accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardTelemetry:
    """Wall-clock resource usage of one shard execution.

    Small and picklable on purpose: it rides back from the worker on a
    side channel next to the shard result and must never bloat the
    result pipe.  ``max_rss_kb`` is the process high-water mark (the
    warm pool reuses workers, so it is a property of the worker, not
    of this shard alone — still the number an operator wants).
    """

    shard_index: int
    wall_ns: int
    cpu_user_s: float
    cpu_system_s: float
    max_rss_kb: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean wire/pickle form."""
        return {
            "shard_index": self.shard_index,
            "wall_ns": self.wall_ns,
            "cpu_user_s": round(self.cpu_user_s, 6),
            "cpu_system_s": round(self.cpu_system_s, 6),
            "max_rss_kb": self.max_rss_kb,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardTelemetry":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            shard_index=int(payload.get("shard_index", 0)),
            wall_ns=int(payload.get("wall_ns", 0)),
            cpu_user_s=float(payload.get("cpu_user_s", 0.0)),
            cpu_system_s=float(payload.get("cpu_system_s", 0.0)),
            max_rss_kb=int(payload.get("max_rss_kb", 0)),
        )

    @classmethod
    def since(cls, shard_index: int, wall_ns: int,
              start) -> "ShardTelemetry":
        """Usage from rusage sample ``start`` (:func:`rusage_now`) to now.

        ``wall_ns`` is the caller's own clock delta over the same span.
        Without ``resource`` the CPU/RSS fields are zero.
        """
        if start is None:  # pragma: no cover - non-POSIX
            return cls(shard_index=shard_index, wall_ns=wall_ns,
                       cpu_user_s=0.0, cpu_system_s=0.0, max_rss_kb=0)
        end = rusage_now()
        return cls(
            shard_index=shard_index,
            wall_ns=wall_ns,
            cpu_user_s=end.ru_utime - start.ru_utime,
            cpu_system_s=end.ru_stime - start.ru_stime,
            max_rss_kb=_max_rss_kb(end.ru_maxrss),
        )


# ---------------------------------------------------------------------------
# rollups
# ---------------------------------------------------------------------------

@dataclass
class TelemetryRollup:
    """Associative fold of shard telemetry (per-job / per-service).

    Sums add, the RSS high-water mark takes the max, and shard counts
    accumulate, so ``a.merge(b)`` equals folding the union of their
    inputs in any order — the same contract as
    :func:`repro.obs.metrics.merge_snapshots`.  ``retries`` (the
    executor's ``counters["retries"]``) and ``queue_wait_s`` are set by
    whoever owns the scheduling: they are facts about scheduling, not
    about any one shard's execution.
    """

    shards: int = 0
    wall_ns: int = 0
    cpu_user_s: float = 0.0
    cpu_system_s: float = 0.0
    max_rss_kb: int = 0
    retries: int = 0
    queue_wait_s: float = 0.0

    def add(self, telemetry: Union[ShardTelemetry, Dict[str, Any]]) -> None:
        """Fold one shard's telemetry into the rollup."""
        if isinstance(telemetry, dict):
            telemetry = ShardTelemetry.from_dict(telemetry)
        self.shards += 1
        self.wall_ns += telemetry.wall_ns
        self.cpu_user_s += telemetry.cpu_user_s
        self.cpu_system_s += telemetry.cpu_system_s
        self.max_rss_kb = max(self.max_rss_kb, telemetry.max_rss_kb)

    def merge(self, other: "TelemetryRollup") -> None:
        """Fold another rollup in (associative, identity = fresh)."""
        self.shards += other.shards
        self.wall_ns += other.wall_ns
        self.cpu_user_s += other.cpu_user_s
        self.cpu_system_s += other.cpu_system_s
        self.max_rss_kb = max(self.max_rss_kb, other.max_rss_kb)
        self.retries += other.retries
        self.queue_wait_s += other.queue_wait_s

    @property
    def cpu_s(self) -> float:
        """Total CPU seconds (user + system)."""
        return self.cpu_user_s + self.cpu_system_s

    @property
    def wall_s(self) -> float:
        """Total shard wall seconds (sum across shards, not elapsed)."""
        return self.wall_ns / 1e9

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean form (stored in job results and reports)."""
        return {
            "shards": self.shards,
            "wall_ns": self.wall_ns,
            "cpu_user_s": round(self.cpu_user_s, 6),
            "cpu_system_s": round(self.cpu_system_s, 6),
            "max_rss_kb": self.max_rss_kb,
            "retries": self.retries,
            "queue_wait_s": round(self.queue_wait_s, 6),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TelemetryRollup":
        """Rebuild from :meth:`to_dict` output."""
        rollup = cls()
        rollup.shards = int(payload.get("shards", 0))
        rollup.wall_ns = int(payload.get("wall_ns", 0))
        rollup.cpu_user_s = float(payload.get("cpu_user_s", 0.0))
        rollup.cpu_system_s = float(payload.get("cpu_system_s", 0.0))
        rollup.max_rss_kb = int(payload.get("max_rss_kb", 0))
        rollup.retries = int(payload.get("retries", 0))
        rollup.queue_wait_s = float(payload.get("queue_wait_s", 0.0))
        return rollup

    def render(self) -> str:
        """One human line (fleet report / job listings)."""
        return (f"cpu {self.cpu_user_s:.2f}s user / "
                f"{self.cpu_system_s:.2f}s sys, "
                f"max rss {self.max_rss_kb / 1024.0:.1f} MB, "
                f"shard wall {self.wall_s:.2f}s over {self.shards} shard(s)")


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

#: Default ring capacity; small enough to dump over the wire, large
#: enough to hold hours of job-level events.
FLIGHT_CAPACITY = 256

#: File-backed recorders compact the sidecar once it holds this many
#: times the ring capacity in records.
_FLIGHT_COMPACT_FACTOR = 8


class FlightRecorder:
    """Bounded ring buffer of structured ops events, with overflow count.

    The changedet thesis argument applied to our own daemon: a lossless
    ops log grows without bound and still tells you nothing when the
    process is killed mid-write, while a bounded ring with honest
    overflow accounting always holds the *recent* story.  ``record``
    appends ``{"seq", "t", "kind", **fields}``; once ``capacity``
    events are held the oldest drops and ``dropped`` increments.

    With a ``path``, every event is also appended to a best-effort
    record-log sidecar (not fsynced — telemetry must never slow the job
    path) and the constructor reloads the tail, so a SIGKILLed daemon's
    successor still sees the pre-kill events plus its own ``recover``.
    The sidecar is rewritten to the ring once it holds ``capacity * 8``
    records; a disk that refuses a write costs history, never the daemon.
    """

    def __init__(self, capacity: int = FLIGHT_CAPACITY,
                 path: Optional[Union[str, Path]] = None) -> None:
        if capacity < 1:
            raise ReproError(
                f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self.recorded = 0
        self.dropped = 0
        self._seq = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._file_records = 0
        if self.path is not None:
            self._reload()

    # -- persistence ----------------------------------------------------------

    def _reload(self) -> None:
        """Load the sidecar tail into the ring (torn records dropped)."""
        self._log = RecordLog(self.path, durable=False)
        events = [json.loads(payload) for payload in self._log.records()]
        self._file_records = len(events)
        for event in events[-self.capacity:]:
            self._ring.append(event)
        self.recorded = len(events)
        self.dropped = max(0, len(events) - self.capacity)
        self._seq = max((int(e.get("seq", 0)) for e in events), default=0)
        try:
            self._compact_if_full()
        except OSError:
            pass  # a full disk must not stop the daemon from starting

    def _compact_if_full(self) -> None:
        """Rewrite the sidecar with just the ring once it outgrows it."""
        if self._file_records <= self.capacity * _FLIGHT_COMPACT_FACTOR:
            return
        blob = b"".join(frame(canonical_json(event).encode())
                        for event in self._ring)
        atomic_write(self.path, blob, durable=False)
        self._log = RecordLog(self.path, durable=False)
        self._file_records = len(self._ring)

    # -- recording ------------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the stored record."""
        self._seq += 1
        event: Dict[str, Any] = {"seq": self._seq,
                                 "t": round(time.time(), 3),
                                 "kind": kind}
        event.update(fields)
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.recorded += 1
        if self.path is not None:
            try:
                self._log.append(canonical_json(event).encode())
                self._file_records += 1
                self._compact_if_full()
            except OSError:
                pass  # a full disk must never take the daemon down
        return event

    # -- introspection --------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Ring contents oldest-first, optionally filtered by kind."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.get("kind") == kind]

    def snapshot(self) -> Dict[str, Any]:
        """The ``flight`` protocol op's payload."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": list(self._ring),
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ---------------------------------------------------------------------------

def prometheus_name(name: str) -> str:
    """Sanitize a ``layer/metric`` path into a Prometheus metric name."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return "{" + inner + "}"


class _Exposition:
    """Accumulates metric families and renders them grouped.

    The exposition format requires every sample of a family to sit in
    one contiguous block under its ``# TYPE`` line, so samples are
    collected per family and only flattened at :meth:`text` time —
    callers can interleave families freely (service rollup, then
    per-job rollups) without producing an invalid scrape.
    """

    def __init__(self) -> None:
        self._order: List[str] = []
        self._declared: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._samples: Dict[str, List[str]] = {}

    def declare(self, name: str, kind: str, help_text: str = "") -> None:
        seen = self._declared.get(name)
        if seen is not None:
            if seen != kind:
                raise ReproError(
                    f"metric {name} declared as both {seen} and {kind}")
            return
        self._order.append(name)
        self._declared[name] = kind
        if help_text:
            self._help[name] = help_text
        self._samples[name] = []

    def sample(self, name: str, value: Any,
               labels: Optional[Dict[str, str]] = None,
               suffix: str = "") -> None:
        self._samples[name].append(
            f"{name}{suffix}{_labels_text(labels or {})}"
            f" {_format_value(value)}")

    def text(self) -> str:
        lines: List[str] = []
        for name in self._order:
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} {self._declared[name]}")
            lines.extend(self._samples[name])
        return "\n".join(lines) + "\n" if lines else ""


def _histogram_family(exposition: _Exposition, name: str,
                      summary: Dict[str, Any]) -> None:
    """One log-bucketed summary as a Prometheus histogram family."""
    from repro.obs.metrics import bucket_bounds

    exposition.declare(name, "histogram")
    cumulative = 0
    buckets = summary.get("buckets") or {}
    for index in sorted(buckets, key=int):
        cumulative += int(buckets[index])
        upper = bucket_bounds(int(index))[1]
        exposition.sample(name, cumulative, {"le": str(upper)},
                          suffix="_bucket")
    exposition.sample(name, int(summary.get("count") or 0),
                      {"le": "+Inf"}, suffix="_bucket")
    exposition.sample(name, int(summary.get("sum") or 0), suffix="_sum")
    exposition.sample(name, int(summary.get("count") or 0), suffix="_count")


def _rollup_family(exposition: _Exposition, rollup: Dict[str, Any],
                   labels: Dict[str, str]) -> None:
    """One telemetry rollup as CPU/RSS/wall sample families."""
    exposition.declare("repro_telemetry_shards_total", "counter",
                       "Shards with telemetry folded into this rollup")
    exposition.sample("repro_telemetry_shards_total",
                      int(rollup.get("shards", 0)), labels)
    exposition.declare("repro_telemetry_cpu_seconds_total", "counter",
                       "Shard CPU seconds by mode")
    for mode, key in (("user", "cpu_user_s"), ("system", "cpu_system_s")):
        exposition.sample("repro_telemetry_cpu_seconds_total",
                          float(rollup.get(key, 0.0)),
                          dict(labels, mode=mode))
    exposition.declare("repro_telemetry_wall_seconds_total", "counter",
                       "Summed shard wall-clock seconds")
    exposition.sample("repro_telemetry_wall_seconds_total",
                      int(rollup.get("wall_ns", 0)) / 1e9, labels)
    exposition.declare("repro_telemetry_max_rss_kilobytes", "gauge",
                       "Worker resident-set high-water mark")
    exposition.sample("repro_telemetry_max_rss_kilobytes",
                      int(rollup.get("max_rss_kb", 0)), labels)
    exposition.declare("repro_telemetry_retries_total", "counter",
                       "Failed shard attempts re-queued to the pool")
    exposition.sample("repro_telemetry_retries_total",
                      int(rollup.get("retries", 0)), labels)


def render_prometheus(snapshot: Optional[Dict[str, Any]] = None,
                      rollup: Optional[Dict[str, Any]] = None,
                      job_rollups: Optional[Dict[str, Dict[str, Any]]] = None,
                      gauges: Optional[Dict[str, Any]] = None) -> str:
    """Render exposition text from a metrics snapshot plus telemetry.

    ``snapshot`` is a :class:`~repro.obs.metrics.MetricsRegistry`
    snapshot (counters become ``repro_<name>_total``, gauges keep their
    name, histograms expand their log buckets into cumulative ``le``
    buckets).  ``rollup`` is the service-level telemetry fold;
    ``job_rollups`` maps job ids to per-job folds (labelled
    ``scope="job"``).  ``gauges`` are ad-hoc operational gauges
    (uptime, queue depth) rendered as-is.
    """
    exposition = _Exposition()
    snapshot = snapshot or {}
    for name in sorted(snapshot.get("counters", {})):
        metric = prometheus_name(name) + "_total"
        exposition.declare(metric, "counter")
        exposition.sample(metric, snapshot["counters"][name])
    for name in sorted(snapshot.get("gauges", {})):
        metric = prometheus_name(name)
        exposition.declare(metric, "gauge")
        exposition.sample(metric, snapshot["gauges"][name])
    for name in sorted(snapshot.get("histograms", {})):
        _histogram_family(exposition, prometheus_name(name),
                          snapshot["histograms"][name])
    for name in sorted(gauges or {}):
        metric = prometheus_name(name)
        exposition.declare(metric, "gauge")
        exposition.sample(metric, gauges[name])
    if rollup:
        _rollup_family(exposition, rollup, {"scope": "service"})
    for job_id in sorted(job_rollups or {}):
        _rollup_family(exposition, job_rollups[job_id],
                       {"scope": "job", "job": job_id})
    return exposition.text()


def validate_exposition(text: str) -> int:
    """Validate Prometheus exposition syntax; returns the sample count.

    Checks what a scraper would choke on: malformed TYPE lines, samples
    whose family was never declared, unparsable values, and label
    blocks that do not close.  Raises :class:`ReproError` with the
    offending line number; the CI serve-smoke runs every scrape of the
    live daemon through this.
    """
    declared: Dict[str, str] = {}
    samples = 0
    closed: set = set()
    last_family: Optional[str] = None
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise ReproError(
                    f"exposition line {line_number}: bad TYPE line {line!r}")
            if parts[2] in declared:
                raise ReproError(
                    f"exposition line {line_number}: duplicate TYPE "
                    f"for {parts[2]}")
            declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        name_end = len(line)
        for index, ch in enumerate(line):
            if ch == "{" or ch == " ":
                name_end = index
                break
        name = line[:name_end]
        rest = line[name_end:]
        if rest.startswith("{"):
            close = rest.find("}")
            if close < 0:
                raise ReproError(
                    f"exposition line {line_number}: unclosed label block")
            rest = rest[close + 1:]
        if not name or not (name[0].isalpha() or name[0] in "_:"):
            raise ReproError(
                f"exposition line {line_number}: bad metric name {name!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                family = name[:-len(suffix)]
                break
        if family not in declared and name not in declared:
            raise ReproError(
                f"exposition line {line_number}: sample {name!r} has no "
                f"TYPE declaration")
        if family != last_family:
            if family in closed:
                raise ReproError(
                    f"exposition line {line_number}: family {family!r} "
                    f"samples are not contiguous")
            if last_family is not None:
                closed.add(last_family)
            last_family = family
        try:
            float(rest.split()[0])
        except (IndexError, ValueError) as exc:
            raise ReproError(
                f"exposition line {line_number}: bad sample value "
                f"in {line!r}") from exc
        samples += 1
    return samples


# ---------------------------------------------------------------------------
# shard profiling (cProfile merge)
# ---------------------------------------------------------------------------

def profile_blob(profiler) -> bytes:
    """Serialize one worker's cProfile run for the result side channel.

    The marshaled ``pstats`` table — the same payload
    ``Profile.dump_stats`` writes — shipped as bytes so it rides the
    result queue next to the shard result instead of needing a shared
    filesystem path per worker.
    """
    profiler.create_stats()
    return marshal.dumps(profiler.stats)


def merged_hotspots(blobs: Iterable[bytes], top: int = 25) -> str:
    """Merge profile blobs into one deterministically ordered table.

    Entries are keyed by ``basename:line(function)`` (paths stripped so
    the table is stable across checkouts), call counts and times sum
    across shards, and rows sort by cumulative time with the key as the
    tie-break — the ordering is a pure function of the merged data.
    """
    merged: Dict[str, List[float]] = {}
    blob_count = 0
    for blob in blobs:
        blob_count += 1
        try:
            table = marshal.loads(blob)
        except (ValueError, EOFError, TypeError) as exc:
            raise ReproError(f"unreadable profile blob: {exc}") from exc
        for (filename, line, function), row in table.items():
            cc, nc, tt, ct = row[0], row[1], row[2], row[3]
            key = f"{os.path.basename(filename)}:{line}({function})"
            entry = merged.setdefault(key, [0, 0, 0.0, 0.0])
            entry[0] += cc
            entry[1] += nc
            entry[2] += tt
            entry[3] += ct
    rows = sorted(merged.items(),
                  key=lambda item: (-item[1][3], item[0]))
    lines = [
        f"merged shard profile: {blob_count} shard profile(s), "
        f"{len(merged)} function(s), top {min(top, len(rows))} "
        f"by cumulative time",
        f"{'ncalls':>12s} {'tottime':>10s} {'cumtime':>10s}  function",
    ]
    for key, (cc, nc, tt, ct) in rows[:top]:
        ncalls = str(nc) if nc == cc else f"{nc}/{cc}"
        lines.append(f"{ncalls:>12s} {tt:>10.3f} {ct:>10.3f}  {key}")
    return "\n".join(lines)


def write_hotspots(path: Union[str, Path], blobs: Iterable[bytes],
                   top: int = 25) -> Path:
    """Write :func:`merged_hotspots` output to ``path`` (dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(merged_hotspots(blobs, top=top) + "\n", encoding="utf-8")
    return path
