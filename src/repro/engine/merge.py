"""Deterministic merging of shard results into one report.

Shard workers return :class:`~repro.engine.spec.ShardResult` objects;
for install campaigns their stats are counters only (the per-install
record is the trace).  :class:`ShardedReport` folds shard stats *in shard
order* with the kind's associative merge (:func:`merge_stats` here), so
the merged stats of a fixed seed are bit-identical no matter how many
shards or workers produced them.  Wall-clock timing is inherently
nondeterministic and is therefore reported beside the stats, never
inside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.campaign import CampaignStats
from repro.engine.spec import CampaignSpec, ShardResult
from repro.obs.metrics import Snapshot, merge_snapshots
from repro.obs.runtime import TelemetryRollup

__all__ = [
    "FleetReport", "ShardResult", "ShardedReport",
    "merge_stats", "wilson_interval",
]


def merge_stats(parts: Iterable[CampaignStats]) -> CampaignStats:
    """Fold stats left-to-right; empty input yields empty stats."""
    merged = CampaignStats()
    for part in parts:
        merged = merged.merge(part)
    return merged


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Behaves sanely at the extremes the fleet actually hits (0 hijacks
    in 50k runs), unlike the normal approximation.  ``trials == 0``
    yields the vacuous ``(0.0, 1.0)``.
    """
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2 * trials)
    margin = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, (centre - margin) / denom),
            min(1.0, (centre + margin) / denom))


@dataclass
class ShardedReport:
    """Merged stats plus run-level aggregates of one engine run.

    The part every workload kind shares: the shard results in
    shard-index order, the stats folded in that order, the fold of the
    per-shard metrics snapshots (None unless the spec had
    ``observe=True``), and ``counters`` — the executor's
    retry/timeout/crash/fallback tallies plus the sum of the shards'
    own counters.  Counters depend on wall-clock scheduling or on state
    a previous run left behind, so they live beside the deterministic
    stats and metrics, never inside them.  A kind subclasses this with
    a one-line ``from_shards`` naming its stats fold, and its renderer.
    """

    spec: Any
    shards: List[ShardResult] = field(default_factory=list)
    stats: Any = None
    wall_seconds: float = 0.0
    workers: int = 1
    backend: str = "serial"
    metrics: Optional[Snapshot] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock plane: the :class:`~repro.obs.runtime.TelemetryRollup`
    #: of every shard's telemetry, its ``retries`` read from
    #: ``counters``.  Reported beside the deterministic stats/metrics,
    #: never inside them.
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def _fold(cls, merge: Callable[[Iterable[Any]], Any], spec: Any,
              shards: List[ShardResult], wall_seconds: float, workers: int,
              backend: str, counters: Optional[Dict[str, int]] = None):
        """Build the report: ``merge`` folds the shard stats in order.

        The one fold of a run: stats, metrics snapshots, counters and
        wall-clock telemetry all merge here, in shard-index order.
        """
        ordered = sorted(shards, key=lambda shard: shard.shard_index)
        snapshots = [shard.metrics for shard in ordered
                     if shard.metrics is not None]
        tallied = dict(counters or {})
        rollup = TelemetryRollup()
        for shard in ordered:
            for name, value in shard.counters.items():
                tallied[name] = tallied.get(name, 0) + value
            rollup.add(shard.telemetry)
        rollup.retries = tallied.get("retries", 0)
        return cls(
            spec=spec,
            shards=ordered,
            stats=merge(shard.stats for shard in ordered),
            wall_seconds=wall_seconds,
            workers=workers,
            backend=backend,
            metrics=merge_snapshots(snapshots) if snapshots else None,
            counters=tallied,
            telemetry=rollup.to_dict(),
        )

    @property
    def throughput(self) -> float:
        """Work units (installs, apps or images) per wall-clock second."""
        return self.stats.runs / self.wall_seconds if self.wall_seconds else 0.0

    def render_engine(self) -> str:
        """One-line engine summary (the ``--metrics`` wall-clock line).

        Shard starts are the attempts summed over every shard, restored
        ones included; ``retried`` is ``counters["retries"]``.
        """
        rates = [shard.stats.runs / shard.wall_seconds
                 for shard in self.shards if shard.wall_seconds > 0]
        if rates:
            shard_rate = (f"shard {self.spec.unit}/s min {min(rates):.0f} / "
                          f"mean {sum(rates) / len(rates):.0f} / "
                          f"max {max(rates):.0f}")
        else:
            shard_rate = "no shard throughput recorded"
        starts = sum(shard.attempts for shard in self.shards)
        return (f"engine: {starts} shard start(s), {len(self.shards)} done, "
                f"{self.counters.get('retries', 0)} retried; {shard_rate}")


@dataclass
class FleetReport(ShardedReport):
    """The install-campaign report (``repro fleet``)."""

    spec: CampaignSpec
    stats: CampaignStats = field(default_factory=CampaignStats)

    @classmethod
    def from_shards(cls, spec, shards, **run) -> "FleetReport":
        return cls._fold(merge_stats, spec, shards, **run)

    def trace_records(self) -> List[Dict[str, Any]]:
        """All shard trace records in shard-index order, shard-tagged.

        Per-shard records are deterministic, and the concatenation
        order is the shard index, so the whole list (and its JSONL
        export) is byte-identical for a fixed ``(spec, shard count)``
        regardless of worker count or backend.
        """
        records = []
        for shard in self.shards:
            for record in shard.trace or ():
                tagged = dict(record)
                tagged["shard"] = shard.shard_index
                records.append(tagged)
        return records

    # -- aggregates ------------------------------------------------------------

    @property
    def hijack_ci(self) -> Tuple[float, float]:
        """95% Wilson interval on the per-run hijack probability."""
        return wilson_interval(self.stats.hijacks, self.stats.runs)

    @property
    def alarm_rate(self) -> float:
        """Fraction of runs that raised at least one alarm."""
        return self.stats.alarmed_runs / self.stats.runs if self.stats.runs else 0.0

    @property
    def alarm_ci(self) -> Tuple[float, float]:
        """95% Wilson interval on the per-run alarm probability."""
        return wilson_interval(self.stats.alarmed_runs, self.stats.runs)

    def shard_timing(self) -> Tuple[float, float, float]:
        """(min, mean, max) shard wall-clock seconds."""
        times = [shard.wall_seconds for shard in self.shards]
        if not times:
            return (0.0, 0.0, 0.0)
        return (min(times), sum(times) / len(times), max(times))

    def render(self) -> str:
        """Human-readable fleet summary (the ``repro fleet`` output)."""
        stats = self.stats
        lo, hi = self.hijack_ci
        alo, ahi = self.alarm_ci
        tmin, tmean, tmax = self.shard_timing()
        retried = self.counters.get("retries", 0)
        lines = [
            f"fleet: {stats.runs} installs over {len(self.shards)} shard(s), "
            f"{self.workers} worker(s), backend={self.backend}",
            f"  installer={self.spec.installer} attack={self.spec.attack} "
            f"defenses={list(self.spec.defenses) or '-'} "
            f"device={self.spec.device} seed={self.spec.seed}",
            f"  installed  : {stats.installs_completed}",
            f"  clean      : {stats.clean_installs}",
            f"  hijacked   : {stats.hijacks}  "
            f"(rate {stats.hijack_rate:.4f}, 95% CI [{lo:.4f}, {hi:.4f}])",
            f"  errors     : {stats.errors}",
            f"  alarms     : {stats.alarms} in {stats.alarmed_runs} run(s)  "
            f"(rate {self.alarm_rate:.4f}, 95% CI [{alo:.4f}, {ahi:.4f}])",
            f"  blocked    : {stats.blocked} in {stats.blocked_runs} run(s)",
            f"  wall clock : {self.wall_seconds:.2f}s  "
            f"({self.throughput:.0f} installs/s)",
            f"  shard time : min {tmin:.2f}s / mean {tmean:.2f}s / "
            f"max {tmax:.2f}s" + (f"  ({retried} retried)" if retried else ""),
            "  telemetry  : "
            + TelemetryRollup.from_dict(self.telemetry).render(),
        ]
        if self.counters.get("restored"):
            lines.append(
                f"  resumed    : {self.counters['restored']} shard(s) "
                "restored from checkpoint")
        if any(value for key, value in self.counters.items()
               if key != "restored"):
            counts = self.counters
            lines.append(
                "  faults     : "
                f"{counts.get('timeouts', 0)} timeout(s), "
                f"{counts.get('crashes', 0)} crash(es), "
                f"{counts.get('errors', 0)} error(s), "
                f"{counts.get('retries', 0)} retried, "
                f"{counts.get('fallbacks', 0)} serial fallback(s)")
        return "\n".join(lines)


CampaignSpec.report_class = FleetReport
