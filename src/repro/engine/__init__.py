"""Sharded parallel fleet-execution engine for campaigns.

Scales the paper's batch experiments (the Table VII attack x defense
grid, the Section VI-A 924-install field test) from one simulated
device in one process to a sharded fleet across a worker pool, with a
hard determinism contract: one top-level seed produces bit-identical
merged stats for any shard count and worker count.

- :mod:`repro.engine.spec` — picklable campaign/shard specs and the
  shard protocol every workload kind shares (slice, execute, result).
- :mod:`repro.engine.executor` — worker pool, retries, serial fallback.
- :mod:`repro.engine.merge` — the shared report merge + fleet aggregates.
- :mod:`repro.engine.progress` — progress/throughput hooks.
"""

from repro.engine.executor import (
    FleetExecutor,
    WarmPool,
    default_workers,
    drain_queue,
    multiprocessing_usable,
    run_fleet,
    run_shard,
    wait_for_result,
)
from repro.engine.merge import (
    FleetReport,
    ShardedReport,
    merge_stats,
    wilson_interval,
)
from repro.engine.progress import (
    ConsoleProgress,
    FleetProgress,
    NullProgress,
)
from repro.engine.spec import (
    ATTACKS,
    CHAOS_MODES,
    DEVICES,
    CampaignSpec,
    ShardResult,
    ShardSlice,
    ShardSpec,
    parse_chaos,
)

__all__ = [
    "ATTACKS",
    "CHAOS_MODES",
    "DEVICES",
    "CampaignSpec",
    "ConsoleProgress",
    "FleetExecutor",
    "FleetProgress",
    "FleetReport",
    "NullProgress",
    "ShardResult",
    "ShardSlice",
    "ShardSpec",
    "ShardedReport",
    "WarmPool",
    "default_workers",
    "drain_queue",
    "merge_stats",
    "multiprocessing_usable",
    "parse_chaos",
    "run_fleet",
    "run_shard",
    "wait_for_result",
    "wilson_interval",
]
