"""Picklable campaign and shard specifications for the fleet engine.

A :class:`CampaignSpec` names everything a worker process needs to
rebuild a scenario from scratch — installer, attack, defenses and
device are referenced *by registry name*, never by object, so a spec
crosses process boundaries with plain :mod:`pickle`.

Determinism contract
--------------------
Shard ``i`` of ``n`` runs global installs ``[start, stop)`` of the
campaign on a fresh simulated device.  Everything observable about
install ``k`` is built from the *global* index ``k`` alone, by
:meth:`CampaignSpec.install_at`, never from the shard layout, and
per-shard RNG streams are forked from the campaign seed with the
:meth:`repro.sim.rand.DeterministicRandom.fork` label-hash.
The merged stats of a fixed ``(spec, seed)`` are therefore
bit-identical for any shard count and worker count.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.android.device import (
    DeviceProfile,
    galaxy_j5_lowend,
    galaxy_s6_edge_verizon,
    nexus5,
    nexus5_marshmallow,
    xiaomi_mi4,
)
from repro.attacks.base import MaliciousApp, fingerprint_for
from repro.attacks.toctou import FileObserverHijacker
from repro.attacks.wait_and_see import WaitAndSeeHijacker
from repro.attacks.watcher_flood import WatcherFloodHijacker
from repro.core.campaign import Campaign, CampaignStats
from repro.core.scenario import VALID_DEFENSES, Scenario
from repro.errors import ReproError
from repro.installers import installer_by_name
from repro.obs.metrics import MetricsRegistry, Snapshot, fold_metrics
from repro.obs.runtime import ShardTelemetry, rusage_now
from repro.obs.trace import TraceRecorder
from repro.sim.events import DEFAULT_DRAIN_INTERVAL_NS, WatchLimits
from repro.sim.rand import DeterministicRandom

#: Attacks a spec may name.  ``None`` means a defense-only / benign run.
ATTACKS: Dict[str, Optional[Type[MaliciousApp]]] = {
    "none": None,
    "fileobserver": FileObserverHijacker,
    "wait-and-see": WaitAndSeeHijacker,
    "watcher-flood": WatcherFloodHijacker,
}

#: Device profiles a spec may name.
DEVICES: Dict[str, Callable[[], DeviceProfile]] = {
    "nexus5": nexus5,
    "nexus5-marshmallow": nexus5_marshmallow,
    "xiaomi-mi4": xiaomi_mi4,
    "galaxy-s6": galaxy_s6_edge_verizon,
    "galaxy-j5": galaxy_j5_lowend,
}


#: Failure-injection modes a chaos spec may name.
CHAOS_MODES = ("crash", "hang", "error")

#: Floor for :attr:`CampaignSpec.poll_interval_ns`.  The wait-and-see
#: attacker polls for the whole 60 s arm budget; anything faster than
#: 1 kHz multiplies into millions of kernel events per trial and trips
#: the simulator's livelock guard (found by ``repro fuzz``).
MIN_POLL_INTERVAL_NS = 1_000_000

#: :class:`CampaignSpec` fields compared as ints in its checks, and
#: whether each may be None.  A str or bool there is refused by type.
_INT_FIELDS = {"max_extra_permissions": False, "poll_interval_ns": True,
               "watch_queue_depth": True, "watch_drain_interval_ns": True}


def parse_chaos(chaos: Optional[str],
                shard_count: Optional[int] = None) -> Tuple[str, Tuple[int, ...]]:
    """Parse and validate a ``mode:i,j,...`` chaos spec.

    Validation happens here — once, up front, in the parent process —
    so a malformed spec raises a clean :class:`ReproError` (CLI exit 2)
    instead of a raw ``ValueError`` from inside worker scheduling, and
    every rejection message names the offending token.  Rejected up
    front: non-integer tokens, negative indices, duplicate indices and
    empty tokens (a trailing or doubled comma).  When ``shard_count``
    is given (the executor knows it at shard time), an index past the
    last shard is rejected too — otherwise the injection would silently
    never fire.  Returns ``(mode, indices)``; ``("", ())`` when
    ``chaos`` is None.
    """
    if chaos is None:
        return ("", ())
    mode, _, raw = chaos.partition(":")
    if mode not in CHAOS_MODES:
        raise ReproError(
            f"invalid chaos spec {chaos!r}: unknown mode {mode!r} "
            f"(valid: {CHAOS_MODES})")
    indices: List[int] = []
    if raw:
        for part in raw.split(","):
            if not part.strip():
                raise ReproError(
                    f"invalid chaos spec {chaos!r}: empty shard index "
                    "(trailing or doubled comma)")
            try:
                index = int(part)
            except ValueError:
                raise ReproError(
                    f"invalid chaos spec {chaos!r}: {part!r} is not a "
                    "shard index") from None
            if index < 0:
                raise ReproError(
                    f"invalid chaos spec {chaos!r}: shard index "
                    f"{part.strip()!r} is negative")
            if index in indices:
                raise ReproError(
                    f"invalid chaos spec {chaos!r}: duplicate shard "
                    f"index {part.strip()!r}")
            indices.append(index)
    if shard_count is not None:
        for index in indices:
            if index >= shard_count:
                raise ReproError(
                    f"invalid chaos spec {chaos!r}: shard index {index} "
                    f"is out of range for {shard_count} shard(s)")
    return (mode, tuple(indices))


def partition(spec: Any, size: int, count: int) -> List[Tuple[int, int]]:
    """Split ``[0, size)`` into ``count`` contiguous ``(start, stop)`` slices.

    The slices are balanced to within one unit.  Validates what every
    workload kind shares: the shard count, and ``spec.chaos`` against
    it (the count is only known here, so this rejects chaos indices
    that would silently never fire).
    """
    if count < 1:
        raise ReproError(f"shard count must be >= 1, got {count}")
    parse_chaos(spec.chaos, shard_count=count)
    base, extra = divmod(size, count)
    slices, start = [], 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


@dataclass(frozen=True)
class CampaignSpec:
    """One fleet campaign: scenario recipe x workload x seed."""

    installs: int
    installer: str = "amazon"
    attack: str = "none"
    defenses: Tuple[str, ...] = ()
    device: str = "nexus5"
    seed: int = 7
    base_size_bytes: int = 4096
    arm_attacker: bool = True
    rearm_between: bool = True
    #: Test-only failure injection, e.g. ``"crash:1"`` or ``"hang:0"``
    #: (only honoured inside pool worker processes, never in-process).
    chaos: Optional[str] = None
    #: Record per-shard traces and metric snapshots (repro.obs).
    observe: bool = False
    #: Candidate extra ``uses-permission`` entries for published APKs;
    #: each install draws a subset derived from its *global* index, so
    #: APK shapes stay shard-independent (see :meth:`install_at`).
    permission_pool: Tuple[str, ...] = ()
    #: Upper bound on extra permissions per published APK (0 = plain
    #: APKs, the pre-fuzz behaviour).
    max_extra_permissions: int = 0
    #: Poll interval of the ``wait-and-see`` attacker in simulated ns
    #: (None = the attack's default); a fuzzable timing offset.
    poll_interval_ns: Optional[int] = None
    #: Device-wide FileObserver queue bound (None = lossless watchers,
    #: the historical behaviour).  See repro.sim.events.WatchLimits.
    watch_queue_depth: Optional[int] = None
    #: Simulated consumer latency per delivered watch event; None with
    #: a queue depth set means the device default drain interval.
    watch_drain_interval_ns: Optional[int] = None
    #: Coalesce identical consecutive pending watch events.
    watch_coalesce: bool = False
    #: Test-only: neuter the named (enabled) defense after
    #: provisioning — it stays installed but stops reacting.  Exists so
    #: the fuzz completeness oracle can prove it detects a broken
    #: defense; never set it outside tests.
    sabotage_defense: Optional[str] = None

    def __post_init__(self) -> None:
        # Refused by type: compared or iterated, a str raises TypeError
        # or reads as one name per character.
        if not isinstance(self.installs, (int, float)):
            raise ReproError(
                f"installs must be an int, got "
                f"{type(self.installs).__name__} {self.installs!r}")
        for name in ("defenses", "permission_pool"):
            if isinstance(getattr(self, name), str):
                raise ReproError(f"{name} must be a list of names, got "
                                 f"str {getattr(self, name)!r}")
        for name, nullable in _INT_FIELDS.items():
            value = getattr(self, name)
            if (value is None and nullable) or (
                    isinstance(value, int) and not isinstance(value, bool)):
                continue
            raise ReproError(
                f"{name} must be an int{' or None' if nullable else ''}, "
                f"got {type(value).__name__} {value!r}")
        if self.installs < 0:
            raise ReproError(f"installs must be >= 0, got {self.installs}")
        parse_chaos(self.chaos)  # raises on a malformed spec
        installer_by_name(self.installer)  # raises on unknown name
        if self.attack not in ATTACKS:
            raise ReproError(
                f"unknown attack {self.attack!r}; known: {sorted(ATTACKS)}")
        if self.device not in DEVICES:
            raise ReproError(
                f"unknown device {self.device!r}; known: {sorted(DEVICES)}")
        for name in self.defenses:
            if name not in VALID_DEFENSES:
                raise ReproError(
                    f"unknown defense {name!r}; valid: {VALID_DEFENSES}")
        if self.max_extra_permissions < 0:
            raise ReproError(
                f"max_extra_permissions must be >= 0, "
                f"got {self.max_extra_permissions}")
        if self.max_extra_permissions > len(self.permission_pool):
            raise ReproError(
                f"max_extra_permissions ({self.max_extra_permissions}) "
                f"exceeds the permission pool size "
                f"({len(self.permission_pool)})")
        if len(set(self.permission_pool)) != len(self.permission_pool):
            raise ReproError(
                f"permission_pool has duplicates: {self.permission_pool}")
        if (self.poll_interval_ns is not None
                and self.poll_interval_ns < MIN_POLL_INTERVAL_NS):
            # Found by fuzzing: a sub-millisecond poll loop against the
            # 60 s arm budget floods the kernel's event cap (a livelock
            # by exhaustion), so reject it here instead of deep in a run.
            raise ReproError(
                f"poll_interval_ns must be >= {MIN_POLL_INTERVAL_NS} "
                f"(1 ms), got {self.poll_interval_ns}")
        if (self.sabotage_defense is not None
                and self.sabotage_defense not in self.defenses):
            raise ReproError(
                f"sabotage_defense {self.sabotage_defense!r} is not one of "
                f"the enabled defenses {self.defenses}")
        if "dapp" in self.defenses and "dapp-rescan" in self.defenses:
            raise ReproError("defenses 'dapp' and 'dapp-rescan' are "
                             "mutually exclusive variants of the same app")
        if (self.watch_queue_depth is not None
                and self.watch_queue_depth < 1):
            raise ReproError(
                f"watch_queue_depth must be >= 1, "
                f"got {self.watch_queue_depth}")
        if (self.watch_drain_interval_ns is not None
                and self.watch_drain_interval_ns < 0):
            raise ReproError(
                f"watch_drain_interval_ns must be >= 0, "
                f"got {self.watch_drain_interval_ns}")

    def watch_limits(self) -> Optional[WatchLimits]:
        """The device-wide loss model these axes describe (None = lossless)."""
        if (self.watch_queue_depth is None
                and self.watch_drain_interval_ns is None
                and not self.watch_coalesce):
            return None
        drain = self.watch_drain_interval_ns
        if drain is None:
            drain = (DEFAULT_DRAIN_INTERVAL_NS
                     if self.watch_queue_depth is not None else 0)
        return WatchLimits(max_queue_depth=self.watch_queue_depth,
                           drain_interval_ns=drain,
                           coalesce=self.watch_coalesce)

    # -- serialization (the serve protocol's wire form) ------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-clean dict form: tuples become lists, field order fixed.

        The inverse of :meth:`from_json_dict`; the round trip is exact
        (the reconstructed spec compares equal), which the serve
        protocol and the checkpoint journal both rely on.
        """
        data = asdict(self)
        data["defenses"] = list(self.defenses)
        data["permission_pool"] = list(self.permission_pool)
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild (and re-validate) a spec from its dict form.

        Unknown fields are rejected — a client speaking a newer
        protocol should fail loudly, not lose options silently.
        Missing fields fall back to the dataclass defaults so minimal
        submissions stay minimal.
        """
        if not isinstance(data, dict):
            raise ReproError(
                f"campaign spec must be a JSON object, "
                f"got {type(data).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"campaign spec has unknown field(s): {sorted(unknown)}")
        if "installs" not in data:
            raise ReproError("campaign spec is missing 'installs'")
        fields = dict(data)
        for name in ("defenses", "permission_pool"):
            if name in fields and not isinstance(fields[name], str):
                fields[name] = tuple(fields[name])
        return cls(**fields)

    def canonical_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — byte-stable.

        Equal specs serialize to identical bytes, so this string keys
        the checkpoint journal's content addressing.
        """
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    # -- workload derivation (global, shard-independent) ----------------------

    #: What one work unit of this kind is called.
    unit = "installs"

    @property
    def size(self) -> int:
        """Number of per-index work units (installs)."""
        return self.installs

    def install_at(self, index: int
                   ) -> Tuple[str, str, int, Tuple[str, ...]]:
        """Install ``index``: ``(package, label, size_bytes, permissions)``.

        Built from the campaign seed and the *global* index alone —
        never the shard layout — so install ``k`` publishes the same APK
        no matter which shard runs it.  The size and the extra
        permissions draw from RNGs forked by the labels ``pkg-{index}``
        and ``perm-{index}``; the permission subset keeps the pool's
        declaration order for a canonical manifest shape.
        """
        rng = DeterministicRandom(self.seed).fork(f"pkg-{index}")
        size = self.base_size_bytes + rng.randint(0, self.base_size_bytes)
        permissions: Tuple[str, ...] = ()
        if self.permission_pool and self.max_extra_permissions:
            rng = DeterministicRandom(self.seed).fork(f"perm-{index}")
            count = rng.randint(0, self.max_extra_permissions)
            if count:
                picked = set(rng.sample(self.permission_pool, count))
                permissions = tuple(p for p in self.permission_pool
                                    if p in picked)
        return (f"com.fleet.app{index:06d}", f"Fleet App {index}", size,
                permissions)

    def child_seed(self, shard_index: int) -> int:
        """Scenario seed of shard ``shard_index`` (sim.rand label-hash)."""
        return DeterministicRandom(self.seed).fork(f"shard-{shard_index}").seed

    # -- sharding --------------------------------------------------------------

    def shard(self, count: int) -> List["ShardSpec"]:
        """Partition the workload into ``count`` contiguous shards.

        Shards are balanced to within one install.  A one-shot
        attacker (``rearm_between=False``) arms once per *scenario*,
        which would make results depend on the shard layout, so such
        campaigns refuse to shard.
        """
        slices = partition(self, self.installs, count)
        if count > 1 and self.attack != "none" and not self.rearm_between:
            raise ReproError(
                "a one-shot attacker (rearm_between=False) arms once per "
                "shard; run it unsharded to keep results well-defined")
        return [ShardSpec(self, index, count, start, stop,
                          seed=self.child_seed(index))
                for index, (start, stop) in enumerate(slices)]


@dataclass
class ShardResult:
    """What one shard execution produced, for every workload kind.

    ``stats`` is the kind's mergeable tally (``CampaignStats`` or
    ``AnalysisStats``).  ``trace``/``metrics`` are populated only when
    the spec has ``observe=True``: the shard's simulated-time trace
    records and its metrics snapshot (both deterministic for a fixed
    shard spec).  ``wall_seconds`` and ``telemetry`` (a
    ``ShardTelemetry.to_dict()`` payload, see :mod:`repro.obs.runtime`)
    are the wall-clock plane, read from one clock pair, beside them.
    ``counters`` are tallies that may differ between runs of the same
    spec (the analysis cache's hits and misses); the report sums them
    beside the deterministic stats, never inside.
    """

    shard_index: int
    start: int
    stop: int
    stats: Any
    wall_seconds: float
    telemetry: Dict[str, Any]
    attempts: int = 1
    backend: str = "process"
    trace: Optional[List[Dict[str, Any]]] = None
    metrics: Optional[Snapshot] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: A marshaled cProfile blob with ``--profile-shards``; never feeds
    #: the deterministic merge.
    profile: Optional[bytes] = None


@dataclass(frozen=True)
class ShardSlice:
    """One contiguous slice ``[start, stop)`` of a sharded workload.

    The engine's unit for every workload kind: the executor ships a
    slice to a worker (reading ``campaign.chaos`` for failure
    injection) and calls :meth:`execute`.  A kind subclasses this and
    implements only :meth:`run`.
    """

    campaign: Any
    index: int
    count: int
    start: int
    stop: int

    #: Whether an observed run writes a :class:`MetricsRegistry`: only
    #: the campaign kind records metrics that no other ledger holds.
    writes_registry = False

    def run(self, recorder: Optional[TraceRecorder],
            metrics: Optional[MetricsRegistry]
            ) -> Tuple[Any, Dict[str, int]]:
        """Run the slice; ``(stats, counters)`` for the result."""
        raise NotImplementedError

    def execute(self) -> ShardResult:
        """Run this shard in the current process (the engine's unit).

        Always samples one rusage pair and one clock pair around the
        shard: the clock pair is both ``wall_seconds`` and the
        telemetry's ``wall_ns``.  When the spec has ``observe=True``
        the result also carries the shard's trace records and its
        metrics snapshot, folded from the stats, the records and the
        registry (:func:`~repro.obs.metrics.fold_metrics`).
        """
        before = rusage_now()
        started = time.perf_counter_ns()
        observe = self.campaign.observe
        recorder = TraceRecorder() if observe else None
        metrics = (MetricsRegistry() if observe and self.writes_registry
                   else None)
        stats, counters = self.run(recorder, metrics)
        wall_ns = time.perf_counter_ns() - started
        telemetry = ShardTelemetry.since(self.index, wall_ns, before)
        records = recorder.records() if recorder is not None else None
        return ShardResult(
            shard_index=self.index,
            start=self.start,
            stop=self.stop,
            stats=stats,
            wall_seconds=wall_ns / 1e9,
            telemetry=telemetry.to_dict(),
            backend="serial",
            trace=records,
            metrics=(fold_metrics(metrics, records, stats)
                     if observe else None),
            counters=counters,
        )


@dataclass(frozen=True)
class ShardSpec(ShardSlice):
    """One shard's slice of a campaign: global installs [start, stop)."""

    campaign: CampaignSpec
    seed: int

    writes_registry = True

    def build_scenario(self, recorder=None, metrics=None) -> Scenario:
        """Provision this shard's fresh device from the spec.

        ``recorder``/``metrics`` are the shard-local observability
        sinks (:mod:`repro.obs`); the executor creates them when the
        campaign spec has ``observe=True``.
        """
        spec = self.campaign
        installer_cls = installer_by_name(spec.installer)
        attacker_cls = ATTACKS[spec.attack]
        factory = None
        if attacker_cls is not None:
            kwargs = {}
            if (spec.poll_interval_ns is not None
                    and attacker_cls is WaitAndSeeHijacker):
                kwargs["poll_interval_ns"] = spec.poll_interval_ns
            factory = lambda s: attacker_cls(fingerprint_for(installer_cls),
                                             **kwargs)
        device = DEVICES[spec.device]()
        limits = spec.watch_limits()
        if limits is not None:
            device = dataclasses.replace(device, watch_limits=limits)
        scenario = Scenario.build(
            installer=installer_cls,
            attacker_factory=factory,
            device=device,
            defenses=spec.defenses,
            seed=self.seed,
            recorder=recorder,
            metrics=metrics,
        )
        if spec.sabotage_defense is not None:
            _sabotage(scenario, spec.sabotage_defense)
        return scenario

    def publish_workload(self, scenario: Scenario) -> List[str]:
        """Publish this shard's slice; shapes come from global indices."""
        packages = []
        for index in range(self.start, self.stop):
            package, label, size, permissions = self.campaign.install_at(index)
            scenario.publish_app(package, label=label, size_bytes=size,
                                 uses_permissions=permissions)
            packages.append(package)
        return packages

    def run(self, recorder, metrics) -> Tuple[CampaignStats, Dict[str, int]]:
        """Provision a fresh device, publish the slice, run its installs.

        Returns the shard's counter-only stats and no side counters.
        """
        spec = self.campaign
        scenario = self.build_scenario(recorder=recorder, metrics=metrics)
        packages = self.publish_workload(scenario)
        campaign = Campaign(scenario)
        campaign.install_many(
            packages,
            arm_attacker=spec.arm_attacker,
            rearm_between=spec.rearm_between,
        )
        return campaign.stats, {}


#: The scenario attribute holding each defense object, by spec name.
_DEFENSE_ATTRS = {
    "dapp": "dapp",
    "dapp-rescan": "dapp",  # same protection app, hybrid variant
    "fuse-dac": "fuse_dac",
    "intent-detection": "intent_detection",
    "intent-origin": "intent_origin",
}


def _sabotage(scenario: Scenario, defense: str) -> None:
    """Neuter one provisioned defense (test-only, see CampaignSpec)."""
    target = getattr(scenario, _DEFENSE_ATTRS[defense], None)
    if target is not None:
        target.suppress_reactions()
