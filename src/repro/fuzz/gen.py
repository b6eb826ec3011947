"""Seeded workload generation: the fuzzer's case sampler.

A :class:`FuzzCase` is a JSON-serializable description of one
randomized campaign — everything the fuzzer varies, nothing it does
not.  Cases are sampled by :func:`generate_case` from a
:class:`~repro.sim.rand.DeterministicRandom` stream forked per case
index, so case ``k`` of fuzz seed ``S`` is the same on every machine,
and lowered to a :class:`repro.engine.spec.CampaignSpec` for
execution.  Sampling is constrained to *valid* specs by construction
(e.g. a one-shot attacker never gets more than one shard), which the
property suite pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Optional, Tuple

from repro.android.permissions import (
    INTERNET,
    KILL_BACKGROUND_PROCESSES,
    READ_CONTACTS,
    READ_LOGS,
)
from repro.engine.spec import (ATTACKS, CHAOS_MODES, DEVICES, CampaignSpec,
                               check_fields, load_fields)
from repro.errors import ReproError
from repro.installers import all_installer_types
from repro.sim.clock import millis
from repro.sim.rand import DeterministicRandom

#: Installer names a case may draw (every registered store).
FUZZ_INSTALLERS: Tuple[str, ...] = tuple(sorted(all_installer_types()))

#: Attack names a case may draw, with sampling weights: benign
#: schedules must stay common enough to exercise the soundness oracle.
FUZZ_ATTACKS: Tuple[str, ...] = tuple(sorted(ATTACKS))
_ATTACK_WEIGHTS = {"none": 0.25, "fileobserver": 0.30, "wait-and-see": 0.25,
                   "watcher-flood": 0.20}

#: Device profile names a case may draw.
FUZZ_DEVICES: Tuple[str, ...] = tuple(sorted(DEVICES))

#: Candidate extra ``uses-permission`` entries for published APKs.
PERMISSION_POOL: Tuple[str, ...] = (
    INTERNET,
    READ_CONTACTS,
    READ_LOGS,
    KILL_BACKGROUND_PROCESSES,
)

_DEFENSE_CHANCE = 0.40
_CHAOS_CHANCE = 0.20
_POLL_JITTER_CHANCE = 0.50
_MAX_TRIALS = 6
_MAX_SHARDS = 3
_MIN_SIZE = 512
_MAX_SIZE = 8192
_MIN_POLL_NS = millis(5)
_MAX_POLL_NS = millis(300)

#: Chance a case runs on a device with a bounded (lossy) watch queue,
#: and the depths/drain intervals it may draw.  Depths start at 8 so
#: benign event pressure (a download burst plus DAPP's own grab reads)
#: never overflows on its own — only attacks do, which keeps the
#: soundness oracle meaningful under loss.
_LOSSY_CHANCE = 0.30
_WATCH_DEPTHS = (8, 16, 32, 64, 128)
_WATCH_DRAINS_NS = (millis(2), millis(5))
_COALESCE_CHANCE = 0.25
#: When the dapp slot is drawn, chance it is the hybrid rescan variant.
_RESCAN_VARIANT_CHANCE = 0.50


@dataclass(frozen=True)
class FuzzCase:
    """One sampled workload: the unit the fuzzer executes and shrinks.

    Field order is the canonical JSON order; :meth:`to_json` /
    :meth:`from_json` round-trip bit-identically, and :meth:`case_id`
    is a stable content hash used for corpus file names.
    """

    seed: int
    trials: int
    installer: str = "amazon"
    attack: str = "none"
    defenses: Tuple[str, ...] = ()
    device: str = "nexus5"
    shards: int = 1
    base_size_bytes: int = 4096
    max_extra_permissions: int = 0
    poll_interval_ns: Optional[int] = None
    arm_attacker: bool = True
    rearm_between: bool = True
    chaos: Optional[str] = None
    #: Device watch-queue loss axes (None/False = lossless watchers).
    #: Optional in the JSON form so pre-lossy corpus entries replay.
    watch_queue_depth: Optional[int] = None
    watch_drain_interval_ns: Optional[int] = None
    watch_coalesce: bool = False

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def lossy_watchers(self) -> bool:
        """True when the device can actually drop watch events."""
        return self.watch_queue_depth is not None

    # -- lowering --------------------------------------------------------------

    def campaign_spec(self, observe: bool = True,
                      sabotage_defense: Optional[str] = None) -> CampaignSpec:
        """Lower to an executable (and validated) engine spec.

        Raises :class:`~repro.errors.ReproError` on an invalid case —
        lowering *is* the case's validation.  ``sabotage_defense`` is
        the runner's test-only broken-defense knob; it rides on the
        spec so it reaches pool workers too.
        """
        if self.trials < 1:
            raise ReproError(f"fuzz case needs trials >= 1, got {self.trials}")
        if self.shards < 1:
            raise ReproError(f"fuzz case needs shards >= 1, got {self.shards}")
        # Every field but trials and shards is a CampaignSpec field.
        shared = asdict(self)
        del shared["trials"], shared["shards"]
        spec = CampaignSpec(
            installs=self.trials, observe=observe,
            permission_pool=PERMISSION_POOL if self.max_extra_permissions else (),
            sabotage_defense=sabotage_defense, **shared)
        spec.shard(self.shards)  # validates chaos indices against the count
        return spec

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ReproError` if the case cannot run."""
        self.campaign_spec(observe=False)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace, tuples as lists."""
        return json.dumps(asdict(self), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        """Inverse of :meth:`to_json`; rejects unknown and missing fields."""
        # Only the watcher-loss axes, which postdate the corpus format,
        # may be absent: entries written before them mean "lossless".
        return load_fields(cls, json.loads(text),
                           required=set(cls.__dataclass_fields__) - {
                               "watch_queue_depth", "watch_drain_interval_ns",
                               "watch_coalesce"})

    def case_id(self) -> str:
        """Stable content hash (12 hex chars) for corpus file names."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:12]

    def describe(self) -> str:
        """One deterministic summary line for fuzz logs."""
        bits = [
            f"installer={self.installer}", f"attack={self.attack}",
            f"defenses={','.join(self.defenses) or '-'}",
            f"device={self.device}", f"trials={self.trials}",
            f"shards={self.shards}", f"seed={self.seed}",
        ]
        if self.chaos:
            bits.append(f"chaos={self.chaos}")
        if self.poll_interval_ns is not None:
            bits.append(f"poll={self.poll_interval_ns}ns")
        if self.watch_queue_depth is not None:
            drain = self.watch_drain_interval_ns
            bits.append(f"watch-depth={self.watch_queue_depth}"
                        + (f"/drain={drain}ns" if drain is not None else ""))
        if self.watch_coalesce:
            bits.append("watch-coalesce")
        if self.max_extra_permissions:
            bits.append(f"perms<={self.max_extra_permissions}")
        if not self.arm_attacker:
            bits.append("unarmed")
        if not self.rearm_between:
            bits.append("one-shot")
        return " ".join(bits)


def generate_case(fuzz_seed: int, index: int) -> FuzzCase:
    """Sample case ``index`` of fuzz seed ``fuzz_seed``.

    Pure: the same ``(fuzz_seed, index)`` yields the same case
    everywhere.  Sampled cases are always valid by construction
    (pinned by the property suite): a one-shot armed attacker forces a
    single shard, chaos indices stay inside the shard range, and
    permission draws stay inside :data:`PERMISSION_POOL`.
    """
    rng = DeterministicRandom(fuzz_seed).fork(f"case-{index}")
    attack = rng.weighted_choice(
        FUZZ_ATTACKS, [_ATTACK_WEIGHTS[name] for name in FUZZ_ATTACKS])
    defenses = []
    if rng.chance(_DEFENSE_CHANCE):  # the dapp slot: plain or hybrid variant
        defenses.append("dapp-rescan"
                        if rng.chance(_RESCAN_VARIANT_CHANCE) else "dapp")
    for name in ("fuse-dac", "intent-detection", "intent-origin"):
        if rng.chance(_DEFENSE_CHANCE):
            defenses.append(name)
    defenses = tuple(defenses)
    arm_attacker = rng.chance(0.85)
    rearm_between = rng.chance(0.80)
    trials = rng.randint(1, _MAX_TRIALS)
    if attack != "none" and not rearm_between:
        shards = 1  # a one-shot attacker refuses to shard
    else:
        shards = rng.randint(1, _MAX_SHARDS)
    chaos = None
    if shards >= 2 and rng.chance(_CHAOS_CHANCE):
        mode = rng.choice(CHAOS_MODES)
        count = rng.randint(1, shards)
        indices = sorted(rng.sample(range(shards), count))
        chaos = f"{mode}:{','.join(str(i) for i in indices)}"
    poll_interval_ns = None
    if attack == "wait-and-see" and rng.chance(_POLL_JITTER_CHANCE):
        poll_interval_ns = rng.randint(_MIN_POLL_NS, _MAX_POLL_NS)
    watch_queue_depth = None
    watch_drain_interval_ns = None
    if rng.chance(_LOSSY_CHANCE):
        watch_queue_depth = rng.choice(_WATCH_DEPTHS)
        watch_drain_interval_ns = rng.choice(_WATCH_DRAINS_NS)
    watch_coalesce = rng.chance(_COALESCE_CHANCE)
    return FuzzCase(
        seed=DeterministicRandom(fuzz_seed).fork(f"case-seed-{index}").seed,
        trials=trials,
        installer=rng.choice(FUZZ_INSTALLERS),
        attack=attack,
        defenses=defenses,
        device=rng.choice(FUZZ_DEVICES),
        shards=shards,
        base_size_bytes=rng.randint(_MIN_SIZE, _MAX_SIZE),
        max_extra_permissions=rng.randint(0, len(PERMISSION_POOL) - 1),
        poll_interval_ns=poll_interval_ns,
        arm_attacker=arm_attacker,
        rearm_between=rearm_between,
        chaos=chaos,
        watch_queue_depth=watch_queue_depth,
        watch_drain_interval_ns=watch_drain_interval_ns,
        watch_coalesce=watch_coalesce,
    )


def simplified(case: FuzzCase, **changes: Any) -> Optional[FuzzCase]:
    """A copy of ``case`` with ``changes``, or None if it would be invalid.

    The shrinker's safe-replace helper: every candidate it proposes
    goes through here, so shrinking can never emit an invalid spec.
    """
    candidate = replace(case, **changes)
    try:
        candidate.validate()
    except ReproError:
        return None
    return candidate
