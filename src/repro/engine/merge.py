"""Deterministic merging of shard results into fleet-level stats.

Shard workers return :class:`ShardResult` objects whose stats carry
slim, picklable :class:`OutcomeRecord` entries (an ``InstallOutcome``
minus its transaction trace).  The merge folds shard stats *in shard
order* with the associative :meth:`CampaignStats.merge`, so the merged
stats of a fixed seed are bit-identical no matter how many shards or
workers produced them.  Wall-clock timing is inherently nondeterministic
and is therefore reported beside the stats, never inside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.campaign import CampaignStats
from repro.core.outcomes import OutcomeRecord
from repro.engine.spec import CampaignSpec
from repro.obs.metrics import Snapshot, merge_snapshots

__all__ = [
    "FleetReport", "OutcomeRecord", "ShardResult", "compact_stats",
    "merge_stats", "wilson_interval",
]


def compact_stats(stats: CampaignStats) -> CampaignStats:
    """Copy ``stats`` with outcomes reduced to :class:`OutcomeRecord`.

    Shard workers call this before pickling results back to the
    parent: transaction traces reference live simulator objects and
    are both heavy and irrelevant to fleet aggregates.
    """
    compact = CampaignStats(
        runs=stats.runs,
        installs_completed=stats.installs_completed,
        hijacks=stats.hijacks,
        clean_installs=stats.clean_installs,
        errors=stats.errors,
        alarms=stats.alarms,
        blocked=stats.blocked,
        alarmed_runs=stats.alarmed_runs,
        blocked_runs=stats.blocked_runs,
    )
    for outcome in stats.outcomes:
        if isinstance(outcome, OutcomeRecord):
            compact.outcomes.append(outcome)
        else:
            compact.outcomes.append(OutcomeRecord.from_outcome(outcome))
    return compact


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
class ShardResult:
    """What one shard execution produced.

    ``trace``/``metrics`` are populated only when the campaign spec has
    ``observe=True``: the shard's simulated-time trace records and its
    metrics snapshot (both deterministic for a fixed shard spec —
    wall-clock stays in ``wall_seconds``, beside them).
    """

    shard_index: int
    start: int
    stop: int
    stats: CampaignStats
    wall_seconds: float
    attempts: int = 1
    backend: str = "process"
    trace: Optional[List[Dict[str, Any]]] = None
    metrics: Optional[Snapshot] = None
    #: Wall-clock plane only (see :mod:`repro.obs.runtime`): a
    #: ``ShardTelemetry.to_dict()`` payload when the run had telemetry
    #: enabled, and an optional marshaled cProfile blob.  Neither ever
    #: feeds the deterministic merge above.
    telemetry: Optional[Dict[str, Any]] = None
    profile: Optional[bytes] = None


@dataclass
class FleetReport:
    """Merged stats plus fleet-level aggregates of one engine run.

    ``metrics`` is the fold of the per-shard snapshots in shard-index
    order (None unless the spec had ``observe=True``); ``counters``
    holds the executor's retry/timeout/crash/fallback tallies, which
    depend on wall-clock scheduling and therefore live beside the
    deterministic metrics, never inside them.
    """

    spec: CampaignSpec
    shards: List[ShardResult] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)
    wall_seconds: float = 0.0
    workers: int = 1
    backend: str = "serial"
    metrics: Optional[Snapshot] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock plane: the associative fold of per-shard telemetry
    #: (:func:`repro.obs.runtime.fold_shard_telemetry`), None when the
    #: run had telemetry disabled.  Reported beside the deterministic
    #: stats/metrics, never inside them.
    telemetry: Optional[Dict[str, Any]] = None

    @classmethod
    def from_shards(cls, spec: CampaignSpec, shards: List[ShardResult],
                    wall_seconds: float, workers: int, backend: str,
                    counters: Optional[Dict[str, int]] = None,
                    ) -> "FleetReport":
        from repro.obs.runtime import fold_shard_telemetry

        ordered = sorted(shards, key=lambda shard: shard.shard_index)
        snapshots = [shard.metrics for shard in ordered
                     if shard.metrics is not None]
        telemetry = fold_shard_telemetry(ordered)
        if telemetry is not None:
            telemetry["retries"] = sum(
                max(0, shard.attempts - 1) for shard in ordered)
        return cls(
            spec=spec,
            shards=ordered,
            stats=merge_stats(shard.stats for shard in ordered),
            wall_seconds=wall_seconds,
            workers=workers,
            backend=backend,
            metrics=merge_snapshots(snapshots) if snapshots else None,
            counters=dict(counters or {}),
            telemetry=telemetry,
        )

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

    @property
    def throughput(self) -> float:
        """Installs per wall-clock second across the whole fleet."""
        return self.stats.runs / self.wall_seconds if self.wall_seconds else 0.0

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
        retried = sum(1 for shard in self.shards if shard.attempts > 1)
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
        ]
        if self.telemetry:
            from repro.obs.runtime import TelemetryRollup

            lines.append("  telemetry  : "
                         + TelemetryRollup.from_dict(self.telemetry).render())
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
