"""Exporters: JSONL traces and human-readable text summaries.

The JSONL form is canonical — one record per line, keys sorted,
compact separators — so a deterministic record stream serializes to
byte-identical output.  ``iter_trace_jsonl`` streams it back one
validated record at a time (``load_trace_jsonl`` is the materialized
form), which is what the CI smoke job and the ``repro trace`` analysis
commands use to read fleet-sized traces without holding every record
in memory.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import ReproError
from repro.obs.metrics import Snapshot, summary_percentile
from repro.obs.trace import EVENT, SPAN

#: Keys every trace record must carry, by record type.
REQUIRED_KEYS = {
    SPAN: ("name", "start_ns", "end_ns"),
    EVENT: ("name", "t_ns"),
}

#: Minimum name-column width in the text renderers (keeps short
#: tables visually aligned with historical output).
MIN_NAME_WIDTH = 28


def trace_to_jsonl(records: Iterable[Dict[str, Any]]) -> str:
    """Serialize records to canonical JSONL (byte-stable for a fixed
    record stream)."""
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
             for record in records]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Write records to ``path`` as JSONL; returns the record count."""
    payload = trace_to_jsonl(records)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    return payload.count("\n")


def append_jsonl(path: Union[str, os.PathLike], record: Dict[str, Any],
                 durable: bool = False) -> None:
    """Append ``record`` to an append-only JSONL log as one canonical line.

    A writer killed mid-append leaves a torn last line with no newline;
    a record appended straight after it would share that line and be
    dropped with it by :func:`read_jsonl`.  So the record starts on a
    fresh line whenever the file does not end in one.  ``durable``
    fsyncs.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "a+b") as handle:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                line = "\n" + line
        handle.write(line.encode("utf-8"))
        if durable:
            handle.flush()
            os.fsync(handle.fileno())


def read_jsonl(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Every intact record of an append-only JSONL log, in order.

    Torn lines (a writer killed mid-append) and lines that are not JSON
    objects are skipped rather than poisoning recovery; a missing file
    reads as empty.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return []
    records = []
    with handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # blank, or torn by a kill
            if isinstance(record, dict):
                records.append(record)
    return records


def iter_trace_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Stream a JSONL trace file one validated record at a time.

    Validation happens as records stream past: malformed JSON, unknown
    record types, missing span/event keys and non-string ``attrs``
    keys all raise :class:`ReproError` with the offending line number.
    Only one line is held in memory, so ``trace summary`` over a
    multi-million-record fleet trace stays flat.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read trace {path}: {exc}") from exc
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{line_number}: invalid JSON: {exc}") from exc
            kind = record.get("type")
            required = REQUIRED_KEYS.get(kind)
            if required is None:
                raise ReproError(
                    f"{path}:{line_number}: unknown record type {kind!r}")
            missing = [key for key in required if key not in record]
            if missing:
                raise ReproError(
                    f"{path}:{line_number}: {kind} record missing {missing}")
            attrs = record.get("attrs")
            if attrs is not None:
                if not isinstance(attrs, dict):
                    raise ReproError(
                        f"{path}:{line_number}: attrs must be an object, "
                        f"got {type(attrs).__name__}")
                bad = [key for key in attrs if not isinstance(key, str)]
                if bad:
                    raise ReproError(
                        f"{path}:{line_number}: non-string attrs "
                        f"key(s) {bad}")
            yield record


def load_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse and validate a JSONL trace file into a list.

    Materialized form of :func:`iter_trace_jsonl` — same validation,
    same errors, whole trace in memory.
    """
    return list(iter_trace_jsonl(path))


def _name_width(names: Iterable[str]) -> int:
    """Name-column width: the longest name, floored at 28 columns."""
    longest = max((len(name) for name in names), default=0)
    return max(MIN_NAME_WIDTH, longest)


def render_trace_summary(records: Iterable[Dict[str, Any]]) -> str:
    """Aggregate a record stream into a per-name text table.

    Spans report count and total simulated time; events report count.
    Accepts any record iterable (including :func:`iter_trace_jsonl`)
    and keeps only per-name aggregates in memory.
    """
    span_count: "OrderedDict[str, int]" = OrderedDict()
    span_ns: Dict[str, int] = {}
    event_count: "OrderedDict[str, int]" = OrderedDict()
    total = 0
    for record in records:
        total += 1
        name = record.get("name", "?")
        if record.get("type") == SPAN:
            span_count[name] = span_count.get(name, 0) + 1
            span_ns[name] = (span_ns.get(name, 0)
                             + record["end_ns"] - record["start_ns"])
        else:
            event_count[name] = event_count.get(name, 0) + 1
    width = _name_width(list(span_count) + list(event_count))
    lines = [f"trace: {total} record(s)"]
    for name in sorted(span_count):
        lines.append(
            f"  span  {name:{width}s} x{span_count[name]:<6d} "
            f"{span_ns[name] / 1e6:.2f} ms simulated")
    for name in sorted(event_count):
        lines.append(f"  event {name:{width}s} x{event_count[name]}")
    return "\n".join(lines)


def render_metrics(snapshot: Optional[Snapshot],
                   title: str = "metrics") -> str:
    """Human-readable rendering of a metrics snapshot.

    Histograms with bucket data append deterministic p50/p95/p99
    estimates after the classic count/mean/min/max summary.
    """
    if snapshot is None:
        snapshot = {}
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    size = len(counters) + len(gauges) + len(histograms)
    width = _name_width(list(counters) + list(gauges) + list(histograms))
    lines = [f"{title}: {size} metric(s)"]
    for name in sorted(counters):
        lines.append(f"  counter   {name:{width}s} {counters[name]}")
    for name in sorted(gauges):
        lines.append(f"  gauge     {name:{width}s} {gauges[name]}")
    for name in sorted(histograms):
        summary = histograms[name]
        count = summary.get("count", 0)
        mean = (summary.get("sum", 0) / count) if count else 0.0
        line = (f"  histogram {name:{width}s} count={count} "
                f"mean={mean:.1f} min={summary.get('min')} "
                f"max={summary.get('max')}")
        if count:
            p50 = summary_percentile(summary, 50)
            p95 = summary_percentile(summary, 95)
            p99 = summary_percentile(summary, 99)
            line += f" p50={p50} p95={p95} p99={p99}"
        lines.append(line)
    return "\n".join(lines)
