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


class ConsoleProgress(FleetProgress):
    """Line-per-event progress with running throughput."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._started_at = 0.0
        self._runs_done = 0
        self._unit = "installs"

    def _emit(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def on_fleet_start(self, spec: "CampaignSpec", shard_count: int,
                       workers: int, backend: str) -> None:
        self._started_at = time.perf_counter()
        self._runs_done = 0
        self._unit = spec.unit
        self._emit(
            f"[fleet] {spec.size} {spec.unit} -> {shard_count} shard(s) "
            f"on {workers} {backend} worker(s)")

    def on_shard_done(self, result: "ShardResult", done: int,
                      total: int) -> None:
        self._runs_done += result.stats.runs
        elapsed = max(time.perf_counter() - self._started_at, 1e-9)
        self._emit(
            f"[fleet] shard {result.shard_index} done "
            f"({result.stats.runs} {self._unit} in "
            f"{result.wall_seconds:.2f}s) — {done}/{total} shards, "
            f"{self._runs_done / elapsed:.0f} {self._unit}/s overall")

    def on_shard_retry(self, shard: "ShardSpec", attempt: int,
                       reason: str) -> None:
        self._emit(
            f"[fleet] shard {shard.index} attempt {attempt} failed "
            f"({reason}); retrying")

    def on_fleet_done(self, report: "FleetReport") -> None:
        unit = report.spec.unit
        self._emit(
            f"[fleet] done: {report.stats.runs} {unit} in "
            f"{report.wall_seconds:.2f}s ({report.throughput:.0f} {unit}/s)")
