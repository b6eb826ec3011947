"""Campaigns: batch scenario execution with aggregate statistics.

Powers Table VII (attack x defense effectiveness) and the Section VI-A
false-positive study (many benign installs, count spurious alarms).
``CampaignStats`` is also the unit of account of the fleet engine
(:mod:`repro.engine`): shard workers each produce one, and the merge
step folds them with :meth:`CampaignStats.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.outcomes import DefenseReport, InstallOutcome
from repro.core.scenario import Scenario


@dataclass
class CampaignStats:
    """Aggregated results of a campaign: counters only.

    No install is retained.  The per-install record is the trace (each
    run's ``install/outcome`` event and ``ait/*`` spans, see
    :mod:`repro.obs`), so a shard's stats stay the same few bytes
    however many installs it ran.
    """

    #: The aggregate counters, in canonical order — the fields that
    #: must be conserved under any merge order (see :meth:`merge`).
    #: Consumers that compare or serialize counters (the fleet merge,
    #: the fuzz conservation oracle) read this instead of hardcoding
    #: the field list.
    COUNTER_FIELDS = (
        "runs", "installs_completed", "hijacks", "clean_installs",
        "errors", "alarms", "blocked", "alarmed_runs", "blocked_runs",
    )

    runs: int = 0
    installs_completed: int = 0
    hijacks: int = 0
    clean_installs: int = 0
    errors: int = 0
    alarms: int = 0
    blocked: int = 0
    alarmed_runs: int = 0
    blocked_runs: int = 0
    # Per-defense high-water marks of the cumulative report counters,
    # used to turn cumulative reports into per-run deltas.  Bookkeeping
    # only: excluded from equality and repr.
    _alarm_marks: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False)
    _blocked_marks: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False)

    def record(self, outcome: InstallOutcome,
               reports: Sequence[DefenseReport]) -> None:
        """Fold one run into the totals.

        Defense reports are *cumulative* over the life of a scenario,
        so each run's contribution is the delta of the counters since
        the previous ``record`` call that saw the same defense.  A
        counter smaller than its high-water mark means the report was
        reset (a fresh scenario re-using this stats object); the new
        total then counts in full.
        """
        self.runs += 1
        if outcome.installed:
            self.installs_completed += 1
        if outcome.hijacked:
            self.hijacks += 1
        if outcome.clean_install:
            self.clean_installs += 1
        if outcome.error is not None:
            self.errors += 1
        alarm_delta = self._delta(
            self._alarm_marks, reports, lambda r: len(r.alarms))
        blocked_delta = self._delta(
            self._blocked_marks, reports, lambda r: len(r.blocked_operations))
        self.alarms += alarm_delta
        self.blocked += blocked_delta
        if alarm_delta:
            self.alarmed_runs += 1
        if blocked_delta:
            self.blocked_runs += 1

    @staticmethod
    def _delta(marks: Dict[str, int], reports: Sequence[DefenseReport],
               counter: Callable[[DefenseReport], int]) -> int:
        delta = 0
        for report in reports:
            total = counter(report)
            last = marks.get(report.defense_name, 0)
            if total < last:  # report reset under us: count it in full
                last = 0
            delta += total - last
            marks[report.defense_name] = total
        return delta

    def counter_tuple(self) -> Tuple[int, ...]:
        """The aggregate counters as a tuple, in canonical field order."""
        return tuple(getattr(self, name) for name in self.COUNTER_FIELDS)

    def merge(self, other: "CampaignStats") -> "CampaignStats":
        """Combine two stats into a new one (associative; identity =
        empty ``CampaignStats()``).

        The merged object is an aggregation snapshot: its delta
        bookkeeping is reset, so keep recording runs into the *input*
        stats, not into a merge result.
        """
        return CampaignStats(
            runs=self.runs + other.runs,
            installs_completed=self.installs_completed + other.installs_completed,
            hijacks=self.hijacks + other.hijacks,
            clean_installs=self.clean_installs + other.clean_installs,
            errors=self.errors + other.errors,
            alarms=self.alarms + other.alarms,
            blocked=self.blocked + other.blocked,
            alarmed_runs=self.alarmed_runs + other.alarmed_runs,
            blocked_runs=self.blocked_runs + other.blocked_runs,
        )

    @property
    def hijack_rate(self) -> float:
        """Fraction of runs that ended with the attacker's package installed."""
        return self.hijacks / self.runs if self.runs else 0.0


class Campaign:
    """Run a sequence of installs through one scenario.

    Pass an existing ``stats`` to accumulate several campaigns (even
    over different scenarios) into one running total — the fleet
    engine's serial backend and multi-scenario studies both do this.
    """

    def __init__(self, scenario: Scenario,
                 stats: Optional[CampaignStats] = None) -> None:
        self.scenario = scenario
        self.stats = stats if stats is not None else CampaignStats()

    def install_many(self, packages: Sequence[str], arm_attacker: bool = True,
                     rearm_between: bool = True) -> CampaignStats:
        """Run one AIT per package, accumulating stats.

        ``rearm_between=False`` arms the attacker only for the first
        install (a one-shot attacker), which is how single-target
        attacks behave in the wild.
        """
        for index, package in enumerate(packages):
            arm_now = arm_attacker and (index == 0 or rearm_between)
            outcome = self.scenario.run_install(package, arm_attacker=arm_now)
            alarms_before = self.stats.alarms
            blocked_before = self.stats.blocked
            self.stats.record(outcome, self.scenario.defense_reports())
            alarms = self.stats.alarms - alarms_before
            blocked = self.stats.blocked - blocked_before
            obs = self.scenario.obs
            if obs.enabled and (alarms or blocked):
                obs.event(
                    "campaign/defense_reaction", self.scenario.system.now_ns,
                    package=outcome.requested_package, run_index=index,
                    alarms=alarms, blocked=blocked,
                )
        return self.stats


def benign_workload(scenario: Scenario, count: int,
                    size_bytes: int = 4096) -> List[str]:
    """Publish ``count`` benign apps and return their package names.

    Used by the false-positive study: the 45-day / 924-install field
    test becomes a randomized benign install stream.
    """
    packages = []
    for index in range(count):
        package = f"com.benign.app{index:04d}"
        scenario.publish_app(
            package,
            label=f"Benign App {index}",
            size_bytes=size_bytes + scenario.system.rng.randint(0, size_bytes),
        )
        packages.append(package)
    return packages
