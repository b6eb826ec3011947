"""Trace forensics over canonical JSONL trace records.

Everything in here consumes the plain record dicts that
:class:`~repro.obs.trace.TraceRecorder` emits and
:func:`~repro.obs.export.iter_trace_jsonl` streams back — no live
simulator objects — so the same analyses run on an in-process recorder,
a single-run ``--trace`` file, or a shard-tagged fleet trace.

Four analyses, each with a deterministic text renderer (fixed seed and
shard count in, byte-identical report out — the analysis-side half of
the determinism contract in :mod:`repro.obs`):

- :func:`profile_trace` — per-name and per-layer latency profiles with
  log-bucketed percentile estimates (``repro trace summary``),
- :func:`build_span_trees` / :func:`critical_path` — span-tree
  reconstruction by interval containment and the dominant-child walk
  that names what an AIT run actually spent its simulated time on
  (``repro trace critpath``),
- :func:`window_forensics` — joins ``attack/arm``/``attack/strike``
  events and ``attack/window`` spans against ``install/outcome``
  events to produce the armed→strike window-width distribution split
  by hijack outcome: the Table VII / window-timing story recovered
  from a trace alone (``repro trace windows``),
- :func:`diff_traces` — structural trace diffing (defense-on vs
  defense-off, seed A vs seed B): added/removed records and per-span
  simulated-time deltas (``repro trace diff``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.obs.trace import EVENT, SPAN

#: Record names the window forensics join on.
ARM_EVENT = "attack/arm"
STRIKE_EVENT = "attack/strike"
WINDOW_SPAN = "attack/window"
OUTCOME_EVENT = "install/outcome"


def _shard_of(record: Dict[str, Any]) -> int:
    """Shard tag of a record (0 for single-run, untagged traces)."""
    return int(record.get("shard", 0))


def layer_of(name: str) -> str:
    """The subsystem prefix of a record name (``ait/install`` -> ``ait``)."""
    return name.split("/", 1)[0] if "/" in name else name


# ---------------------------------------------------------------------------
# Latency profiles
# ---------------------------------------------------------------------------


@dataclass
class TraceProfile:
    """Per-name and per-layer aggregates of one record stream.

    ``spans`` and ``layers`` hold one duration :class:`Histogram` per
    span name or layer; ``events`` counts each event name.
    """

    records: int = 0
    shards: int = 0
    spans: Dict[str, Histogram] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    layers: Dict[str, Histogram] = field(default_factory=dict)

    @property
    def total_span_ns(self) -> int:
        """Simulated time summed over every span in the trace."""
        return sum(histogram.total for histogram in self.spans.values())


def profile_trace(records: Iterable[Dict[str, Any]]) -> TraceProfile:
    """Stream records into per-name / per-layer latency profiles.

    Memory is bounded by the number of distinct names, not the number
    of records, so fleet traces stream straight from
    :func:`~repro.obs.export.iter_trace_jsonl`.
    """
    profile = TraceProfile()
    seen_shards = set()
    for record in records:
        profile.records += 1
        seen_shards.add(_shard_of(record))
        name = record.get("name", "?")
        if record.get("type") == SPAN:
            duration = record["end_ns"] - record["start_ns"]
            entry = profile.spans.get(name)
            if entry is None:
                entry = profile.spans[name] = Histogram()
            entry.observe(duration)
            layer = layer_of(name)
            rollup = profile.layers.get(layer)
            if rollup is None:
                rollup = profile.layers[layer] = Histogram()
            rollup.observe(duration)
        else:
            profile.events[name] = profile.events.get(name, 0) + 1
    profile.shards = len(seen_shards)
    return profile


def render_profile(profile: TraceProfile) -> str:
    """Deterministic text table of a :class:`TraceProfile`."""
    names = (list(profile.spans) + list(profile.events)
             + list(profile.layers))
    width = max([len(name) for name in names] + [28])
    lines = [
        f"trace: {profile.records} record(s), {profile.shards} shard(s), "
        f"{profile.total_span_ns / 1e6:.2f} ms simulated in spans"
    ]
    for name in sorted(profile.spans):
        entry = profile.spans[name]
        lines.append(
            f"  span  {name:{width}s} x{entry.count:<6d} "
            f"total {entry.total / 1e6:>10.2f} ms  "
            f"mean {entry.mean / 1e6:>8.2f} ms  "
            f"p50~{_ms(entry.percentile(50)):>8s}  "
            f"p95~{_ms(entry.percentile(95)):>8s}  "
            f"p99~{_ms(entry.percentile(99)):>8s}")
    for name in sorted(profile.events):
        lines.append(f"  event {name:{width}s} x{profile.events[name]}")
    if profile.layers:
        lines.append("by layer (span time):")
        for name in sorted(profile.layers):
            entry = profile.layers[name]
            share = (entry.total / profile.total_span_ns * 100.0
                     if profile.total_span_ns else 0.0)
            lines.append(
                f"  layer {name:{width}s} x{entry.count:<6d} "
                f"total {entry.total / 1e6:>10.2f} ms  "
                f"({share:5.1f}% of span time)")
    return "\n".join(lines)


def _ms(value_ns: Optional[int]) -> str:
    return "-" if value_ns is None else f"{value_ns / 1e6:.2f}"


# ---------------------------------------------------------------------------
# Span trees and the critical path
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One span plus the spans nested inside its interval."""

    name: str
    start_ns: int
    end_ns: int
    shard: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    order: int = 0  # emission index, the deterministic tiebreak
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        """Width of the span's simulated-time interval."""
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        """Duration not covered by (non-overlapping) direct children."""
        return max(0, self.duration_ns
                   - sum(child.duration_ns for child in self.children))

    def walk(self) -> Iterator[Tuple[int, "SpanNode"]]:
        """Yield ``(depth, node)`` over the subtree, pre-order."""
        stack: List[Tuple[int, SpanNode]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))


def build_span_trees(records: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Reconstruct span nesting by interval containment, per shard.

    Spans carry no parent ids, but nesting is recoverable: a span whose
    interval lies inside another's (same shard) is its descendant.
    Sorting by ``(start asc, end desc, emission order)`` and sweeping a
    stack rebuilds the forest deterministically; returns the roots in
    ``(shard, start, emission)`` order.
    """
    by_shard: Dict[int, List[SpanNode]] = {}
    for order, record in enumerate(records):
        if record.get("type") != SPAN:
            continue
        node = SpanNode(
            name=record.get("name", "?"),
            start_ns=record["start_ns"],
            end_ns=record["end_ns"],
            shard=_shard_of(record),
            attrs=dict(record.get("attrs") or {}),
            order=order,
        )
        by_shard.setdefault(node.shard, []).append(node)
    roots: List[SpanNode] = []
    for shard in sorted(by_shard):
        nodes = sorted(by_shard[shard],
                       key=lambda n: (n.start_ns, -n.end_ns, n.order))
        stack: List[SpanNode] = []
        for node in nodes:
            while stack and not (stack[-1].start_ns <= node.start_ns
                                 and node.end_ns <= stack[-1].end_ns):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
    return roots


@dataclass
class PathStep:
    """One hop of a critical path."""

    depth: int
    node: SpanNode
    root_ns: int = 0

    @property
    def share(self) -> float:
        """This hop's duration relative to the path root (0..1)."""
        return self.node.duration_ns / self.root_ns if self.root_ns else 0.0


def critical_path(records: Iterable[Dict[str, Any]],
                  shard: Optional[int] = None) -> List[PathStep]:
    """The dominant-child walk from the longest root span.

    Picks the root span with the largest simulated duration (earliest
    start, then lowest shard, break remaining ties by emission order)
    and repeatedly descends into the longest child — for an AIT run
    this names the step chain that decided end-to-end latency.
    ``shard`` restricts the walk to one shard of a fleet trace.
    """
    roots = build_span_trees(records)
    if shard is not None:
        roots = [root for root in roots if root.shard == shard]
    if not roots:
        return []
    choose = lambda nodes: min(
        nodes, key=lambda n: (-n.duration_ns, n.start_ns, n.shard, n.order))
    node = choose(roots)
    root_ns = node.duration_ns
    path = []
    depth = 0
    while node is not None:
        path.append(PathStep(depth=depth, node=node, root_ns=root_ns))
        node = choose(node.children) if node.children else None
        depth += 1
    return path


def render_critical_path(path: List[PathStep]) -> str:
    """Deterministic text rendering of a critical path."""
    if not path:
        return "critical path: no spans in trace"
    root = path[0].node
    lines = [
        f"critical path: shard {root.shard}, root {root.name!r}, "
        f"{root.duration_ns / 1e6:.2f} ms simulated"
    ]
    for step in path:
        node = step.node
        lines.append(
            f"  {'  ' * step.depth}{node.name:<30s} "
            f"[{node.start_ns / 1e6:>10.2f} .. {node.end_ns / 1e6:>10.2f}] ms  "
            f"{node.duration_ns / 1e6:>9.2f} ms  "
            f"({step.share * 100.0:5.1f}%)  self {node.self_ns / 1e6:.2f} ms")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Race-window forensics
# ---------------------------------------------------------------------------


@dataclass
class WindowStats:
    """Distribution of armed→strike window widths for one outcome."""

    widths_ns: List[int] = field(default_factory=list)
    blocked: int = 0

    def add(self, width_ns: int, was_blocked: bool) -> None:
        self.widths_ns.append(width_ns)
        if was_blocked:
            self.blocked += 1

    @property
    def count(self) -> int:
        return len(self.widths_ns)

    @property
    def mean_ns(self) -> float:
        return (sum(self.widths_ns) / len(self.widths_ns)
                if self.widths_ns else 0.0)

    def percentile_ns(self, q: float) -> Optional[int]:
        """Exact nearest-rank percentile of the recorded widths."""
        if not self.widths_ns:
            return None
        ordered = sorted(self.widths_ns)
        rank = max(1, math.ceil(len(ordered) * q / 100.0))
        return ordered[min(rank, len(ordered)) - 1]


@dataclass
class WindowReport:
    """The armed→strike window distribution split by hijack outcome."""

    hijacked: WindowStats = field(default_factory=WindowStats)
    clean: WindowStats = field(default_factory=WindowStats)
    arms: int = 0
    strikes: int = 0
    outcomes: int = 0
    unresolved: int = 0  # windows never followed by an outcome event

    @property
    def groups(self) -> Dict[str, WindowStats]:
        return {"hijacked": self.hijacked, "clean": self.clean}


def window_forensics(records: Iterable[Dict[str, Any]]) -> WindowReport:
    """Join attack windows against install outcomes, per shard.

    Within a shard, records appear in emission order: each run's
    ``attack/window`` span(s) precede its ``install/outcome`` event, so
    the join is a sweep — buffer windows until the next outcome, then
    attribute them to that outcome's hijacked/clean group.  Streams, so
    fleet traces never materialize.
    """
    report = WindowReport()
    pending: Dict[int, List[Tuple[int, bool]]] = {}
    for record in records:
        name = record.get("name")
        shard = _shard_of(record)
        if name == ARM_EVENT:
            report.arms += 1
        elif name == STRIKE_EVENT:
            report.strikes += 1
        elif name == WINDOW_SPAN and record.get("type") == SPAN:
            attrs = record.get("attrs") or {}
            pending.setdefault(shard, []).append(
                (record["end_ns"] - record["start_ns"],
                 bool(attrs.get("blocked", False))))
        elif name == OUTCOME_EVENT:
            report.outcomes += 1
            attrs = record.get("attrs") or {}
            group = (report.hijacked if attrs.get("hijacked")
                     else report.clean)
            for width, was_blocked in pending.pop(shard, []):
                group.add(width, was_blocked)
    report.unresolved = sum(len(widths) for widths in pending.values())
    return report


def render_windows(report: WindowReport) -> str:
    """Deterministic text table of a :class:`WindowReport`.

    The hijacked-vs-clean split is the trace-level reproduction of the
    paper's Table VII window story: hijacks succeed when the armed→
    strike window is wide enough for the swap to land before the
    install read.
    """
    lines = [
        f"race-window forensics: {report.arms} arm(s), "
        f"{report.strikes} strike(s), {report.outcomes} outcome(s)"
        + (f", {report.unresolved} unresolved window(s)"
           if report.unresolved else "")
    ]
    header = (f"  {'outcome':<10s} {'windows':>8s} {'blocked':>8s} "
              f"{'min ms':>10s} {'p50 ms':>10s} {'p95 ms':>10s} "
              f"{'p99 ms':>10s} {'max ms':>10s} {'mean ms':>10s}")
    lines.append(header)
    for label in ("hijacked", "clean"):
        stats = report.groups[label]
        if not stats.count:
            lines.append(f"  {label:<10s} {0:>8d} {'-':>8s} "
                         + " ".join(f"{'-':>10s}" for _ in range(6)))
            continue
        ordered = sorted(stats.widths_ns)
        lines.append(
            f"  {label:<10s} {stats.count:>8d} {stats.blocked:>8d} "
            f"{ordered[0] / 1e6:>10.2f} "
            f"{stats.percentile_ns(50) / 1e6:>10.2f} "
            f"{stats.percentile_ns(95) / 1e6:>10.2f} "
            f"{stats.percentile_ns(99) / 1e6:>10.2f} "
            f"{ordered[-1] / 1e6:>10.2f} "
            f"{stats.mean_ns / 1e6:>10.2f}")
    if report.hijacked.count and report.clean.count:
        delta = report.hijacked.mean_ns - report.clean.mean_ns
        lines.append(
            f"  mean window delta (hijacked - clean): {delta / 1e6:+.2f} ms")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Trace diffing
# ---------------------------------------------------------------------------


def _diff_key(record: Dict[str, Any]) -> Tuple[int, str, str]:
    return (_shard_of(record), str(record.get("type")),
            str(record.get("name", "?")))


def _times_of(record: Dict[str, Any]) -> Tuple[int, ...]:
    if record.get("type") == SPAN:
        return (record["start_ns"], record["end_ns"])
    return (record["t_ns"],)


@dataclass
class RecordDelta:
    """One record present in both traces but changed."""

    shard: int
    kind: str
    name: str
    occurrence: int  # per-(shard, kind, name) index
    time_deltas: Tuple[int, ...]  # (dstart, dend) for spans, (dt,) events
    duration_delta: int = 0
    attrs_changed: bool = False


@dataclass
class TraceDiff:
    """Structural difference between two record streams."""

    added: List[Dict[str, Any]] = field(default_factory=list)
    removed: List[Dict[str, Any]] = field(default_factory=list)
    changed: List[RecordDelta] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """True when the traces are record-for-record identical."""
        return not (self.added or self.removed or self.changed)


def diff_traces(old: Iterable[Dict[str, Any]],
                new: Iterable[Dict[str, Any]]) -> TraceDiff:
    """Diff two traces structurally (old -> new).

    Records align by ``(shard, type, name)`` sequence position — the
    n-th ``ait/install`` span of shard 2 in one trace matches the n-th
    in the other — which is stable because record emission order is
    deterministic per shard.  Aligned pairs report simulated-time
    deltas (a defense that narrows the TOCTOU window shows up as a
    negative ``attack/window`` duration delta); unmatched records are
    added/removed.  ``diff_traces(t, t)`` is empty for every trace.
    """
    old_seq: Dict[Tuple[int, str, str], List[Dict[str, Any]]] = {}
    for record in old:
        old_seq.setdefault(_diff_key(record), []).append(record)
    new_seq: Dict[Tuple[int, str, str], List[Dict[str, Any]]] = {}
    for record in new:
        new_seq.setdefault(_diff_key(record), []).append(record)
    diff = TraceDiff()
    for key in sorted(set(old_seq) | set(new_seq)):
        olds = old_seq.get(key, [])
        news = new_seq.get(key, [])
        shard, kind, name = key
        for occurrence in range(min(len(olds), len(news))):
            left, right = olds[occurrence], news[occurrence]
            left_times = _times_of(left)
            right_times = _times_of(right)
            deltas = tuple(r - l for l, r in zip(left_times, right_times))
            duration_delta = 0
            if kind == SPAN:
                duration_delta = ((right_times[1] - right_times[0])
                                  - (left_times[1] - left_times[0]))
            attrs_changed = ((left.get("attrs") or {})
                             != (right.get("attrs") or {}))
            if any(deltas) or attrs_changed:
                diff.changed.append(RecordDelta(
                    shard=shard, kind=kind, name=name,
                    occurrence=occurrence, time_deltas=deltas,
                    duration_delta=duration_delta,
                    attrs_changed=attrs_changed))
        diff.removed.extend(olds[len(news):])
        diff.added.extend(news[len(olds):])
    return diff


def render_diff(diff: TraceDiff, max_detail: int = 20) -> str:
    """Deterministic text rendering of a :class:`TraceDiff`.

    At most ``max_detail`` changed records are listed per section; the
    totals always cover everything (no silent truncation).
    """
    if diff.empty:
        return "trace diff: identical"
    lines = [
        f"trace diff: {len(diff.added)} added, {len(diff.removed)} removed, "
        f"{len(diff.changed)} changed"
    ]
    for label, records in (("added", diff.added), ("removed", diff.removed)):
        for record in records[:max_detail]:
            times = "/".join(str(t) for t in _times_of(record))
            lines.append(
                f"  {label:<8s} shard {_shard_of(record)} "
                f"{record.get('type')} {record.get('name', '?')} @ {times}")
        if len(records) > max_detail:
            lines.append(f"  {label:<8s} ... {len(records) - max_detail} more")
    for delta in diff.changed[:max_detail]:
        detail = []
        if delta.kind == SPAN:
            detail.append(f"dstart={delta.time_deltas[0]:+d}ns")
            detail.append(f"dend={delta.time_deltas[1]:+d}ns")
            detail.append(f"dduration={delta.duration_delta:+d}ns")
        else:
            detail.append(f"dt={delta.time_deltas[0]:+d}ns")
        if delta.attrs_changed:
            detail.append("attrs differ")
        lines.append(
            f"  changed  shard {delta.shard} {delta.kind} {delta.name} "
            f"#{delta.occurrence}: " + " ".join(detail))
    if len(diff.changed) > max_detail:
        lines.append(f"  changed  ... {len(diff.changed) - max_detail} more")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def validate_records(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Structural sanity check of a record stream: the problems found.

    A well-formed trace satisfies, per shard: event timestamps are
    monotone in emission order, span intervals are valid (integer,
    non-negative, end >= start), and same-layer spans nest rather than
    partially overlap.  Returns one message per problem, in record
    order (empty list = well-formed).  Shared by the fuzz well-formed
    oracle and usable standalone on any exported trace.
    """
    problems: List[str] = []
    per_shard_events: Dict[int, int] = {}
    per_shard_spans: Dict[Tuple[int, str], List[Tuple[int, int, str]]] = {}
    for position, record in enumerate(records):
        shard = _shard_of(record)
        kind = record.get("type")
        name = str(record.get("name", ""))
        if kind == EVENT:
            t_ns = record.get("t_ns")
            if not isinstance(t_ns, int) or t_ns < 0:
                problems.append(
                    f"record {position}: event {name!r} has invalid "
                    f"t_ns {t_ns!r}")
                continue
            last = per_shard_events.get(shard)
            if last is not None and t_ns < last:
                problems.append(
                    f"record {position}: event {name!r} at {t_ns} ns goes "
                    f"backwards (shard {shard} was already at {last} ns)")
            per_shard_events[shard] = max(per_shard_events.get(shard, 0), t_ns)
        elif kind == SPAN:
            start = record.get("start_ns")
            end = record.get("end_ns")
            if (not isinstance(start, int) or not isinstance(end, int)
                    or start < 0 or end < start):
                problems.append(
                    f"record {position}: span {name!r} has invalid interval "
                    f"[{start!r}, {end!r}]")
                continue
            per_shard_spans.setdefault((shard, layer_of(name)), []).append(
                (start, end, name))
    for (shard, layer), spans in sorted(per_shard_spans.items()):
        message = _nesting_violation(spans)
        if message is not None:
            problems.append(f"shard {shard} layer {layer!r}: {message}")
    return problems


def _nesting_violation(spans: List[Tuple[int, int, str]]) -> Optional[str]:
    """First partial overlap among ``spans``, or None if they all nest.

    Sorted by (start, -end) so an enclosing span precedes its children;
    a stack walk then catches any span that crosses its enclosing
    span's boundary instead of nesting inside it.
    """
    ordered = sorted(spans, key=lambda s: (s[0], -s[1]))
    stack: List[Tuple[int, int, str]] = []
    for start, end, name in ordered:
        while stack and start >= stack[-1][1]:
            stack.pop()
        if stack and end > stack[-1][1]:
            outer = stack[-1]
            return (f"span {name!r} [{start}, {end}] partially overlaps "
                    f"{outer[2]!r} [{outer[0]}, {outer[1]}]")
        stack.append((start, end, name))
    return None
