"""Progress and throughput reporting hooks for the fleet engine.

The executor drives a :class:`FleetProgress` from the parent process as
shard results arrive (worker processes never print).  Subclass and
override what you need; every hook has a no-op default, so a partial
observer is fine.
"""

from __future__ import annotations

import sys
import time
from typing import IO, TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.engine.merge import FleetReport
    from repro.engine.spec import CampaignSpec, ShardResult, ShardSpec


class FleetProgress:
    """Observer interface for one engine run (all hooks optional)."""

    def on_fleet_start(self, spec: "CampaignSpec", shard_count: int,
                       workers: int, backend: str) -> None:
        """The executor resolved its backend and is about to launch."""

    def on_shard_start(self, shard: "ShardSpec", attempt: int) -> None:
        """A shard (re)starts; ``attempt`` is 1-based."""

    def on_shard_done(self, result: "ShardResult", done: int,
                      total: int) -> None:
        """A shard finished; ``done`` of ``total`` shards are complete."""

    def on_shard_retry(self, shard: "ShardSpec", attempt: int,
                       reason: str) -> None:
        """A shard attempt failed (crash/timeout/error) and will retry."""

    def on_fleet_done(self, report: "FleetReport") -> None:
        """All shards merged; the report is final."""


class NullProgress(FleetProgress):
    """Silent default."""


class TeeProgress(FleetProgress):
    """Broadcast every hook to several observers in order."""

    def __init__(self, *observers: FleetProgress) -> None:
        self.observers = list(observers)

    def on_fleet_start(self, spec, shard_count, workers, backend) -> None:
        for observer in self.observers:
            observer.on_fleet_start(spec, shard_count, workers, backend)

    def on_shard_start(self, shard, attempt) -> None:
        for observer in self.observers:
            observer.on_shard_start(shard, attempt)

    def on_shard_done(self, result, done, total) -> None:
        for observer in self.observers:
            observer.on_shard_done(result, done, total)

    def on_shard_retry(self, shard, attempt, reason) -> None:
        for observer in self.observers:
            observer.on_shard_retry(shard, attempt, reason)

    def on_fleet_done(self, report) -> None:
        for observer in self.observers:
            observer.on_fleet_done(report)


class MetricsProgress(FleetProgress):
    """Engine-side throughput/fault accounting.

    Everything here derives from wall-clock scheduling (per-shard
    throughput, retries observed), so it is reported *beside* the
    deterministic :mod:`repro.obs` snapshots, mirroring how
    :class:`~repro.engine.merge.FleetReport` separates the two planes.
    """

    def __init__(self) -> None:
        self.shards_started = 0
        self.shards_done = 0
        self.retries = 0
        self.throughputs: list = []  # installs/s per finished shard
        self.telemetry = None  # TelemetryRollup once a result carries one

    def on_shard_start(self, shard, attempt) -> None:
        self.shards_started += 1

    def on_shard_done(self, result, done, total) -> None:
        self.shards_done += 1
        if result.wall_seconds > 0:
            self.throughputs.append(result.stats.runs / result.wall_seconds)
        payload = result.telemetry
        if payload:
            if self.telemetry is None:
                from repro.obs.runtime import TelemetryRollup

                self.telemetry = TelemetryRollup()
            self.telemetry.add(payload)

    def on_shard_retry(self, shard, attempt, reason) -> None:
        self.retries += 1
        if self.telemetry is not None:
            self.telemetry.retries += 1

    def render(self) -> str:
        """One-line engine summary (wall-clock plane)."""
        if self.throughputs:
            lo = min(self.throughputs)
            hi = max(self.throughputs)
            mean = sum(self.throughputs) / len(self.throughputs)
            shard_rate = (f"shard installs/s min {lo:.0f} / "
                          f"mean {mean:.0f} / max {hi:.0f}")
        else:
            shard_rate = "no shard throughput recorded"
        line = (f"engine: {self.shards_started} shard start(s), "
                f"{self.shards_done} done, {self.retries} retried; "
                f"{shard_rate}")
        if self.telemetry is not None:
            line += f"\nengine: telemetry {self.telemetry.render()}"
        return line


class ConsoleProgress(FleetProgress):
    """Line-per-event progress with running throughput."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._started_at = 0.0
        self._runs_done = 0

    def _emit(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def on_fleet_start(self, spec: "CampaignSpec", shard_count: int,
                       workers: int, backend: str) -> None:
        self._started_at = time.perf_counter()
        self._runs_done = 0
        self._emit(
            f"[fleet] {spec.installs} installs -> {shard_count} shard(s) "
            f"on {workers} {backend} worker(s)")

    def on_shard_done(self, result: "ShardResult", done: int,
                      total: int) -> None:
        self._runs_done += result.stats.runs
        elapsed = max(time.perf_counter() - self._started_at, 1e-9)
        self._emit(
            f"[fleet] shard {result.shard_index} done "
            f"({result.stats.runs} installs in {result.wall_seconds:.2f}s) "
            f"— {done}/{total} shards, "
            f"{self._runs_done / elapsed:.0f} installs/s overall")

    def on_shard_retry(self, shard: "ShardSpec", attempt: int,
                       reason: str) -> None:
        self._emit(
            f"[fleet] shard {shard.index} attempt {attempt} failed "
            f"({reason}); retrying")

    def on_fleet_done(self, report: "FleetReport") -> None:
        self._emit(
            f"[fleet] done: {report.stats.runs} installs in "
            f"{report.wall_seconds:.2f}s ({report.throughput:.0f} installs/s)")
