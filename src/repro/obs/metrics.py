"""Counter/gauge/histogram registry with deterministic snapshots.

Metric values derive only from simulated quantities (event counts,
simulated-nanosecond durations, queue depths), never from wall-clock
readings — wall-clock timing is reported *beside* metrics, the way
:mod:`repro.engine.merge` reports shard timing beside merged stats.
Snapshots are plain nested dicts with sorted keys, so two runs of the
same seed produce bit-identical snapshots, and per-shard snapshots
merged in shard order are bit-identical for any worker count.

Merge semantics: counters add, gauges keep the maximum (they track
high-water marks), histogram summaries combine count/sum/min/max and
add bucket counts.

Histograms are **log-bucketed**: every observation lands in the
power-of-two bucket given by :func:`bucket_index`, so a summary stays
a handful of integers regardless of observation count, folds
associatively under :func:`merge_snapshots` (bucket counts just add),
and still supports deterministic percentile estimates
(:func:`summary_percentile`) — p50/p90/p99 from traces and fleet
snapshots alike.  Every summary is written by :meth:`Histogram.summary`
and therefore always carries ``buckets`` beside the classic
``count``/``sum``/``min``/``max`` keys.
"""

from __future__ import annotations

import math
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence)

from repro.errors import ReproError

#: Snapshot section names, in render order.
KINDS = ("counters", "gauges", "histograms")

Snapshot = Dict[str, Dict[str, object]]


def bucket_index(value: int) -> int:
    """The log2 bucket an observation falls into.

    Bucket 0 holds every value <= 0 (durations are non-negative, so in
    practice: exact zeros); bucket ``i`` >= 1 holds values in
    ``[2**(i-1), 2**i - 1]``.  Pure integer arithmetic, so the mapping
    is bit-identical everywhere.
    """
    if value <= 0:
        return 0
    return int(value).bit_length()


def bucket_bounds(index: int) -> "tuple":
    """Inclusive ``(lower, upper)`` value bounds of bucket ``index``."""
    if index <= 0:
        return (0, 0)
    return (1 << (index - 1), (1 << index) - 1)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0; raises :class:`ReproError`)."""
        if amount < 0:
            raise ReproError(
                f"Counter.inc of negative amount {amount}; counters are "
                "monotonic — use a gauge or a second counter instead")
        self.value += amount


class Gauge:
    """A high-water mark: ``set`` keeps the largest value seen."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int) -> None:
        """Raise the gauge to ``value`` if it is a new maximum."""
        if value > self.value:
            self.value = value


class Histogram:
    """A log-bucketed histogram with count/sum/min/max sidecar summary."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        """Fold one observation into the summary and its log bucket.

        This is the hottest instrument call in the codebase (one per
        kernel step), so the bucket index is computed inline with
        ``int.bit_length`` — no function call, no allocation — and is
        by construction identical to :func:`bucket_index`.
        """
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = value.bit_length() if value > 0 else 0
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Average observation, 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[int]:
        """Deterministic percentile estimate (None when empty)."""
        return summary_percentile(self.summary(), q)

    def summary(self) -> Dict[str, object]:
        """Picklable summary dict (``min``/``max`` are None when empty).

        ``buckets`` maps stringified bucket indices to counts (string
        keys keep the dict JSON-clean).
        """
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(index): self.buckets[index]
                            for index in sorted(self.buckets)}}


def summary_percentile(summary: Dict[str, object],
                       q: float) -> Optional[int]:
    """Estimate the ``q``-th percentile of a histogram summary.

    Nearest-rank over the log buckets: the estimate is the upper bound
    of the bucket holding the rank, clamped to the summary's exact
    ``min``/``max``.  Integer-only arithmetic keeps the estimate
    bit-identical across platforms.  Returns None for an empty summary.
    """
    count = int(summary.get("count") or 0)
    if count <= 0:
        return None
    buckets = summary["buckets"]
    rank = max(1, math.ceil(count * q / 100.0))
    seen = 0
    estimate = None
    for index in sorted(buckets, key=int):
        seen += int(buckets[index])
        if seen >= rank:
            estimate = bucket_bounds(int(index))[1]
            break
    if estimate is None:  # rank beyond recorded buckets (q > 100)
        estimate = bucket_bounds(int(max(buckets, key=int)))[1]
    low, high = summary.get("min"), summary.get("max")
    if low is not None:
        estimate = max(estimate, int(low))
    if high is not None:
        estimate = min(estimate, int(high))
    return estimate


def summary_percentiles(summary: Dict[str, object],
                        qs: Sequence[float]) -> Dict[float, Optional[int]]:
    """Percentile estimates for each ``q`` in ``qs`` (see above)."""
    return {q: summary_percentile(summary, q) for q in qs}


class MetricsRegistry:
    """Named metrics, created on first use.

    Names are free-form but the codebase uses ``layer/metric`` paths
    (``kernel/events_dispatched``, ``campaign/hijacks``) so snapshots
    group naturally by subsystem.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    # -- bound instruments: resolve once (creating the instrument) and
    # keep the update method, for the kernel's hot paths.

    def bind_counter(self, name: str) -> Callable[..., None]:
        """Resolve once: the ``inc`` method of counter ``name``."""
        return self.counter(name).inc

    def bind_gauge(self, name: str) -> Callable[[int], None]:
        """Resolve once: the ``set`` method of gauge ``name``."""
        return self.gauge(name).set

    def bind_histogram(self, name: str) -> Callable[[int], None]:
        """Resolve once: the ``observe`` method of histogram ``name``."""
        return self.histogram(name).observe

    def snapshot(self) -> Snapshot:
        """Deterministic, picklable state dump (sorted names)."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].summary()
                           for name in sorted(self._histograms)},
        }


def empty_snapshot() -> Snapshot:
    """The merge identity: a snapshot with no metrics."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[Snapshot]) -> Snapshot:
    """Fold snapshots left-to-right (associative, identity = empty).

    Folding per-shard snapshots in shard-index order makes the merged
    snapshot independent of worker count and completion order.
    Histogram bucket counts add.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, int] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, 0), value)
        for name, summary in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = dict(
                    summary, buckets=dict(summary["buckets"]))
                continue
            merged["count"] += summary["count"]
            merged["sum"] += summary["sum"]
            merged["min"] = _fold_extreme(merged["min"], summary["min"], min)
            merged["max"] = _fold_extreme(merged["max"], summary["max"], max)
            folded = merged["buckets"]
            for index, bucket_count in summary["buckets"].items():
                folded[index] = folded.get(index, 0) + bucket_count
            merged["buckets"] = {index: folded[index]
                                 for index in sorted(folded, key=int)}
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {name: histograms[name] for name in sorted(histograms)},
    }


def _fold_extreme(left, right, pick):
    if left is None:
        return right
    if right is None:
        return left
    return pick(left, right)


def snapshot_names(snapshot: Snapshot) -> List[str]:
    """Every metric name in ``snapshot``, sorted, kind-prefixed."""
    names = []
    for kind in KINDS:
        names.extend(f"{kind}:{name}" for name in sorted(snapshot.get(kind, {})))
    return names


# -- the fold: one ledger per fact -------------------------------------------

#: Every metric that repeats a fact another ledger holds, with its one
#: source: ``name -> (source, key, attr)``.  ``stats``: counter ``key`` of
#: the stats (a ``CampaignStats`` field, an ``AnalysisStats`` counter, or
#: the daemon's rollup).  ``count``: the trace records named ``key``, or
#: those whose attribute ``attr`` is truthy.  ``duration``: a histogram
#: of the ``end_ns - start_ns`` of the spans named ``key``.
FOLDED: Dict[str, tuple] = {
    "campaign/runs": ("stats", "runs", None),
    "campaign/alarms": ("stats", "alarms", None),
    "campaign/blocked": ("stats", "blocked", None),
    "campaign/alarmed_runs": ("stats", "alarmed_runs", None),
    "campaign/blocked_runs": ("stats", "blocked_runs", None),
    "analysis/installers": ("stats", "installers", None),
    "serve/shards_completed": ("stats", "shards", None),
    "ait/runs": ("count", "install/outcome", None),
    "ait/installed": ("count", "install/outcome", "installed"),
    "ait/hijacked": ("count", "install/outcome", "hijacked"),
    "ait/errors": ("count", "install/outcome", "error"),
    "attack/strikes": ("count", "attack/strike", None),
    "attack/strikes_blocked": ("count", "attack/strike", "blocked"),
    "kernel/processes_finished": ("count", "kernel/process", None),
    "kernel/processes_failed": ("count", "kernel/process", "error"),
    "hub/queue_overflows": ("count", "hub/q_overflow", None),
    "dapp/overflows": ("count", "defense/rescan_mode", None),
    "analysis/apps": ("count", "analysis/app", None),
    "analysis/images": ("count", "analysis/image", None),
    "attack/window_ns": ("duration", "attack/window", None),
    "analysis/instructions_per_app": ("duration", "analysis/app", None),
    "analysis/apps_per_image": ("duration", "analysis/image", None),
}

#: Folded counters shown at 0 too once the metric they map to is
#: nonzero; every other folded metric appears only when nonzero.
SHOWN_AT_ZERO = {"campaign/alarms": "campaign/runs",
                 "campaign/blocked": "campaign/runs"}

_BY_RECORD: Dict[str, List[tuple]] = {}
for _name, (_source, _key, _attr) in FOLDED.items():
    if _source != "stats":
        _BY_RECORD.setdefault(_key, []).append((_name, _source, _attr))


def fold_metrics(registry: Optional[MetricsRegistry] = None,
                 records: Optional[Iterable[Dict[str, Any]]] = None,
                 stats: Any = None) -> Snapshot:
    """One snapshot from the registry, the trace records and the stats.

    The registry holds only what no other ledger records; every
    :data:`FOLDED` metric is derived here.  ``stats`` is a
    ``CampaignStats``, an ``AnalysisStats`` or a name -> count mapping.
    A registry counter of a folded name (the daemon's ``health`` reads
    create one at 0) keeps that name shown at 0.
    """
    snapshot = (registry.snapshot() if registry is not None
                else empty_snapshot())
    if stats is not None and not isinstance(stats, Mapping):
        stats = (dict(zip(stats.COUNTER_FIELDS, stats.counter_tuple()))
                 if hasattr(stats, "COUNTER_FIELDS") else stats.counters)
    counters = {name: (stats or {}).get(key, 0)
                for name, (source, key, _) in FOLDED.items()
                if source == "stats"}
    histograms: Dict[str, Histogram] = {}
    for record in records or ():
        for name, source, attr in _BY_RECORD.get(record["name"], ()):
            if source == "duration":
                histograms.setdefault(name, Histogram()).observe(
                    record["end_ns"] - record["start_ns"])
            elif attr is None or record["attrs"][attr]:
                counters[name] = counters.get(name, 0) + 1
    shown = snapshot["counters"]
    for name, value in counters.items():
        if value or name in shown or counters.get(SHOWN_AT_ZERO.get(name)):
            shown[name] = value
    for name, histogram in histograms.items():
        snapshot["histograms"][name] = histogram.summary()
    return {kind: dict(sorted(snapshot[kind].items())) for kind in KINDS}
