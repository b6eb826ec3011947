"""Picklable campaign and shard specifications for the fleet engine.

A :class:`CampaignSpec` names everything a worker process needs to
rebuild a scenario from scratch — installer, attack, defenses and
device are referenced *by registry name*, never by object, so a spec
crosses process boundaries with plain :mod:`pickle`.

Determinism contract
--------------------
Shard ``i`` of ``n`` runs global installs ``[start, stop)`` of the
campaign on a fresh simulated device.  Everything observable about
install ``k`` is derived from the *global* index ``k`` (package name,
APK size via :meth:`CampaignSpec.size_for`), never from the shard
layout, and per-shard RNG streams are forked from the campaign seed
with the :meth:`repro.sim.rand.DeterministicRandom.fork` label-hash.
The merged stats of a fixed ``(spec, seed)`` are therefore
bit-identical for any shard count and worker count.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import asdict, dataclass
from typing import (TYPE_CHECKING, Any, Callable, ClassVar, Dict, List,
                    Optional, Tuple, Type)

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
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.sim.events import DEFAULT_DRAIN_INTERVAL_NS, WatchLimits
from repro.sim.rand import DeterministicRandom

if TYPE_CHECKING:  # merge imports this module for CampaignSpec
    from repro.engine.merge import ShardResult

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


def workload_package(index: int) -> str:
    """Package name of global install ``index`` (shard-independent)."""
    return f"com.fleet.app{index:06d}"


#: Failure-injection modes a chaos spec may name.
CHAOS_MODES = ("crash", "hang", "error")

#: Floor for :attr:`CampaignSpec.poll_interval_ns`.  The wait-and-see
#: attacker polls for the whole 60 s arm budget; anything faster than
#: 1 kHz multiplies into millions of kernel events per trial and trips
#: the simulator's livelock guard (found by ``repro fuzz``).
MIN_POLL_INTERVAL_NS = 1_000_000


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
    #: Retain at most this many per-run outcome records per shard
    #: (None = all; 0 = none).  Aggregate counters always cover every
    #: run — this only bounds shard memory and result-pickle size.
    keep_outcomes: Optional[int] = None
    #: Candidate extra ``uses-permission`` entries for published APKs;
    #: each install draws a subset derived from its *global* index, so
    #: APK shapes stay shard-independent (see :meth:`permissions_for`).
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
        if self.installs < 0:
            raise ReproError(f"installs must be >= 0, got {self.installs}")
        if self.keep_outcomes is not None and self.keep_outcomes < 0:
            raise ReproError(
                f"keep_outcomes must be >= 0 or None, got {self.keep_outcomes}")
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
            if name in fields:
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

    def size_for(self, index: int) -> int:
        """APK size of global install ``index``.

        Forked from the campaign seed by install label, so a package
        gets the same size no matter which shard publishes it.
        """
        rng = DeterministicRandom(self.seed).fork(f"pkg-{index}")
        return self.base_size_bytes + rng.randint(0, self.base_size_bytes)

    def permissions_for(self, index: int) -> Tuple[str, ...]:
        """Extra permissions of global install ``index``.

        Derived, like :meth:`size_for`, from the campaign seed and the
        *global* index — never the shard layout — so the APK shape of
        install ``k`` is identical no matter which shard publishes it.
        The subset keeps the pool's declaration order for a canonical
        manifest shape.
        """
        if not self.permission_pool or not self.max_extra_permissions:
            return ()
        rng = DeterministicRandom(self.seed).fork(f"perm-{index}")
        count = rng.randint(0, self.max_extra_permissions)
        if count == 0:
            return ()
        picked = set(rng.sample(self.permission_pool, count))
        return tuple(p for p in self.permission_pool if p in picked)

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
        if count < 1:
            raise ReproError(f"shard count must be >= 1, got {count}")
        # The shard count is only known here: reject chaos indices that
        # would silently never fire.
        parse_chaos(self.chaos, shard_count=count)
        if count > 1 and self.attack != "none" and not self.rearm_between:
            raise ReproError(
                "a one-shot attacker (rearm_between=False) arms once per "
                "shard; run it unsharded to keep results well-defined")
        base, extra = divmod(self.installs, count)
        shards, start = [], 0
        for index in range(count):
            stop = start + base + (1 if index < extra else 0)
            shards.append(ShardSpec(
                campaign=self,
                index=index,
                count=count,
                start=start,
                stop=stop,
                seed=self.child_seed(index),
            ))
            start = stop
        return shards


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of a campaign: global installs [start, stop)."""

    campaign: CampaignSpec
    index: int
    count: int
    start: int
    stop: int
    seed: int

    @property
    def installs(self) -> int:
        """Number of installs this shard runs."""
        return self.stop - self.start

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
            package = workload_package(index)
            scenario.publish_app(
                package,
                label=f"Fleet App {index}",
                size_bytes=self.campaign.size_for(index),
                uses_permissions=self.campaign.permissions_for(index),
            )
            packages.append(package)
        return packages

    def execute(self) -> "ShardResult":
        """Run this shard in the current process (the engine's unit).

        Provisions a fresh device, publishes the shard's slice of the
        global workload, runs the installs, and returns compacted
        (picklable, trace-free) stats.  When the campaign spec has
        ``observe=True`` the result also carries the shard's trace
        records and metrics snapshot (simulated-time only, so both are
        deterministic for a fixed shard spec).
        """
        from repro.engine.merge import ShardResult  # import cycle

        started = time.perf_counter()
        spec = self.campaign
        recorder = TraceRecorder() if spec.observe else None
        metrics = MetricsRegistry() if spec.observe else None
        scenario = self.build_scenario(recorder=recorder, metrics=metrics)
        packages = self.publish_workload(scenario)
        # Compact at record time: outcomes are projected to trace-free
        # OutcomeRecord as they happen, so the shard never accumulates
        # transaction traces only to strip them post-hoc.
        campaign = Campaign(scenario, stats=CampaignStats(
            compact=True, keep_outcomes=spec.keep_outcomes))
        campaign.install_many(
            packages,
            arm_attacker=spec.arm_attacker,
            rearm_between=spec.rearm_between,
        )
        return ShardResult(
            shard_index=self.index,
            start=self.start,
            stop=self.stop,
            stats=campaign.stats,
            wall_seconds=time.perf_counter() - started,
            backend="serial",
            trace=recorder.records() if recorder is not None else None,
            metrics=metrics.snapshot() if metrics is not None else None,
        )


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
