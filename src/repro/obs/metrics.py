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
from typing import Callable, Dict, Iterable, List, Optional, Sequence

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

    # -- bound instruments --------------------------------------------------
    #
    # Hot paths that observe the same metric thousands of times per run
    # (the kernel's per-step latency, the scenario's per-AIT counters)
    # should not pay a registry dict lookup plus a method bind on every
    # observation.  ``bind_*`` resolves the instrument once and returns
    # its update method; call sites cache the handle at construction
    # time and invoke it directly.  Binding creates the instrument, so
    # only bind metrics that are recorded unconditionally — a bound
    # name appears in snapshots from the moment of binding, exactly as
    # a ``counter(name)`` lookup would have created it.

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
