"""The sharded measurement pipeline: the paper's study on the engine.

Ports the Sections IV–V measurement study onto :mod:`repro.engine` as a
second workload kind.  Where a :class:`~repro.engine.spec.CampaignSpec`
shard installs apps on a simulated device, an :class:`AnalysisSpec`
shard *statically analyzes* a contiguous slice of a streaming corpus:

- ``play`` / ``preinstalled`` shards run the classifier and the
  redirect scan over apps derived by global index from the seed
  (:class:`~repro.analysis.corpus.PlayCorpusPlan` /
  :class:`~repro.analysis.corpus.PreinstalledCorpusPlan` — no
  million-element list is ever materialized),
- ``images`` shards run the hare and platform-key passes per factory
  image over the Section IV-B fleet, and tally Tables V and VI.

The engine owns the shard protocol — partition, execute, result,
merge — for both kinds; this module supplies only what differs: how a
slice runs (:meth:`AnalysisShardSpec.run`), how its stats merge, and
how the report renders.  Every shard folds into an
:class:`AnalysisStats` — counters that add and string sets that union,
associatively, in shard-index order — so the merged result is
bit-identical for any shard/worker split, the same determinism
contract the install engine carries.  Trace records use the app's
*global index* as the simulated-time axis and are never shard-tagged,
so the exported JSONL is byte-identical across splits too.

A content-addressed cache (key = sha256 of the smali text) makes
re-runs incremental: each entry records the *detector versions its
verdict consulted* (see
:data:`~repro.analysis.classifier.DETECTOR_VERSIONS`), so bumping one
detector's version re-analyzes only the apps whose code exercised that
detector.  An entry is one positional JSON array (schema, key,
versions, then the record's fields in order), read back by position
after its shape and versions are checked; an entry that check refuses
lets the lookup go on to the next segment holding the key.  A shard
that keys its apps also writes its range's key map (index -> content
key), so a warm shard reads its records by index without building the
apps.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.cache import PackStore
from repro.analysis.classifier import (
    DETECTOR_VERSIONS,
    InstallerClassifier,
)
from repro.analysis.corpus import (
    WRITE_EXTERNAL,
    CorpusApp,
    PlayCorpusPlan,
    PlayCorpusSpec,
    PreinstalledCorpusPlan,
    PreinstalledCorpusSpec,
    scaled_play_spec,
    scaled_preinstalled_spec,
)
from repro.analysis.factory_images import (
    ALL_SPECS,
    AMAZON_PKG,
    DTIGNITE_PKG,
    FactoryImagePlan,
    HUAWEI_STORE_PKG,
    SPRINTZONE_PKG,
    XIAOMI_STORE_PKG,
    scaled_image_specs,
)
from repro.analysis.redirect_scan import redirect_targets
from repro.analysis.smali import parse_program
from repro.android.signing import platform_key
from repro.engine.merge import ShardedReport
from repro.engine.spec import ShardSlice, check_fields, parse_chaos, partition
from repro.errors import ReproError
from repro.sim.rand import DeterministicRandom

#: Bump on incompatible cache-entry layout changes.
CACHE_SCHEMA = 2
#: Mapped indices a shard rebuilds and keys before it trusts a key map.
KEYMAP_GUARD_SAMPLE = 8
#: Version of the redirect-target extraction (play-corpus pass).
REDIRECT_SCAN_VERSION = 1

#: Workload kinds ``repro analyze`` accepts.
ANALYSIS_CORPORA = ("play", "preinstalled", "images")

#: Table V's named vulnerable installers, paper row order.
_TABLE5_PACKAGES = (AMAZON_PKG, DTIGNITE_PKG, XIAOMI_STORE_PKG,
                    HUAWEI_STORE_PKG, SPRINTZONE_PKG)


# ---------------------------------------------------------------------------
# mergeable per-shard tallies
# ---------------------------------------------------------------------------


@dataclass
class AnalysisStats:
    """Mergeable analysis tallies (the pipeline's ``CampaignStats``).

    ``counters`` add and ``sets`` union under :meth:`merge`, which is
    associative with :func:`AnalysisStats` () as identity — folding
    per-shard stats in shard-index order therefore yields the same
    result for any shard/worker split.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    sets: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        """Work units folded in (apps or images) — progress-hook API."""
        return self.counters.get("apps", self.counters.get("images", 0))

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def mark(self, name: str, member: str) -> None:
        """Add ``member`` to set ``name``."""
        self.sets.setdefault(name, set()).add(member)

    def count(self, name: str) -> int:
        """Counter value (0 when never bumped)."""
        return self.counters.get(name, 0)

    def cardinality(self, name: str) -> int:
        """Size of set ``name`` (0 when never marked)."""
        return len(self.sets.get(name, ()))

    def members(self, name: str) -> Tuple[str, ...]:
        """Sorted members of set ``name`` (empty when never marked)."""
        return tuple(sorted(self.sets.get(name, ())))

    def merge(self, other: "AnalysisStats") -> "AnalysisStats":
        """Fold ``other`` in (mutating self; returns self for chaining)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, members in other.sets.items():
            self.sets.setdefault(name, set()).update(members)
        return self

    def identity_tuple(self) -> Tuple:
        """Canonical value for equality checks across runs/splits."""
        return (
            tuple(sorted(self.counters.items())),
            tuple((name, tuple(sorted(members)))
                  for name, members in sorted(self.sets.items())),
        )


def merge_analysis_stats(parts: Iterable[AnalysisStats]) -> AnalysisStats:
    """Fold shard stats left-to-right (associative, identity = empty)."""
    merged = AnalysisStats()
    for part in parts:
        merged.merge(part)
    return merged


# ---------------------------------------------------------------------------
# the per-app unit of work and its cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppAnalysis:
    """One app's full analysis record (classifier + redirect scan).

    This is what the content-addressed cache stores and what every
    tally folds from — cold and warm runs produce identical stats and
    traces because both fold the same records.
    """

    package: str
    category: str                      # Category.value
    has_install_api: bool
    uses_sdcard: bool
    sets_world_readable: bool
    unresolved_setter: bool
    redirect_targets: Tuple[str, ...]
    instructions: int
    unparsed_lines: int
    detectors: Tuple[str, ...]         # classifier detectors consulted
    scanned_redirects: bool
    write_external: bool
    instances: int


def analyze_app(app: CorpusApp, classifier: InstallerClassifier,
                scan_redirects: bool = True) -> AppAnalysis:
    """Run every per-app pass over one app, parsing its code once."""
    program = parse_program(app.smali_text, lenient=True)
    result = classifier.classify(app, program=program)
    targets = redirect_targets(program) if scan_redirects else ()
    record = object.__new__(AppAnalysis)
    # A frozen dataclass __init__ pays one object.__setattr__ per
    # field; the direct __dict__ store is measurable at sweep scale.
    object.__setattr__(record, "__dict__", {
        "package": app.package,
        "category": result.category.value,
        "has_install_api": result.has_install_api,
        "uses_sdcard": result.uses_sdcard,
        "sets_world_readable": result.sets_world_readable,
        "unresolved_setter": result.unresolved_setter,
        "redirect_targets": targets,
        "instructions": result.instructions,
        "unparsed_lines": result.unparsed_lines,
        "detectors": tuple(result.detectors),
        "scanned_redirects": scan_redirects,
        "write_external": WRITE_EXTERNAL in app.declared_permissions,
        "instances": app.instances,
    })
    return record


#: A payload's canonical bytes: compact separators, and the versions
#: object's keys sorted.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: The record fields in payload order (``AppAnalysis``'s field order).
_FIELDS = tuple(item.name for item in fields(AppAnalysis))
#: A payload's length: schema, key, versions, then one slot a field.
_PAYLOAD_LENGTH = 3 + len(_FIELDS)
_REDIRECT_TARGETS = _FIELDS.index("redirect_targets")
_DETECTORS = _FIELDS.index("detectors")


class AnalysisCache:
    """Content-addressed per-app analysis cache.

    Keys are the sha256 of the app's smali text; entries carry the
    version of every detector the verdict consulted.  A lookup misses
    when any consulted detector's current version differs — so bumping
    ``DETECTOR_VERSIONS["chmod"]`` re-analyzes exactly the apps whose
    code reached the chmod detector, and nothing else.

    An entry is one positional JSON array, ``[CACHE_SCHEMA, key,
    versions, <AppAnalysis fields in field order>]``: :meth:`load`
    checks its length, schema, key and versions and builds the record
    by position.

    Storage is the :class:`~repro.analysis.cache.PackStore` pack
    format: :meth:`store` encodes each entry once into an in-memory
    buffer and :meth:`flush` (called once per shard) frames it into one
    append-only, sha256-verified segment plus its fanout index, so a
    warm run does O(segments) opens instead of one per app.  Hits are
    read from a read-only mapping of the segment and re-verified; an
    entry :meth:`load` refuses (stale versions, another schema) passes
    the lookup on to the next segment holding the key, so a stale entry
    never hides a fresh one.  :meth:`close` releases those mappings.
    :meth:`mapped_keys` and a :meth:`flush` given a plan read and write
    the store's key maps.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._store = PackStore(root)

    @staticmethod
    def key_for(app: CorpusApp) -> str:
        """sha256 of the smali text — the content address."""
        return hashlib.sha256(app.smali_text.encode("utf-8")).hexdigest()

    def load(self, key: str) -> Optional[AppAnalysis]:
        """The cached record, or None on miss / stale detector versions."""
        return self._store.get(
            key, lambda payload: _record_from(key, payload))

    def store(self, key: str, record: AppAnalysis) -> None:
        """Buffer ``record`` with its consulted detector versions."""
        versions = {name: DETECTOR_VERSIONS[name]
                    for name in record.detectors
                    if name in DETECTOR_VERSIONS}
        if record.scanned_redirects:
            versions["redirect"] = REDIRECT_SCAN_VERSION
        # Flat fields (str, bool, int, tuple of str), set in field order
        # by both analyze_app and the dataclass __init__.
        self._store.put(key, _ENCODER.encode(
            [CACHE_SCHEMA, key, versions, *record.__dict__.values()]
        ).encode("utf-8"))

    def mapped_keys(self, plan, start: int,
                    stop: int) -> List[Optional[str]]:
        """Each index's content key from the key maps; None if unmapped.

        The maps are trusted per plan fingerprint.  As a backstop
        against a generator edit that did not bump its version, a
        seeded sample of the mapped indices is rebuilt and keyed first;
        on any mismatch every map is ignored, which costs misses of the
        map, never a false hit, and the maps that overlap the range are
        deleted, so the map this shard writes is not outranked by them.
        """
        fingerprint = plan.fingerprint()
        keys = self._store.mapped_keys(fingerprint, start, stop)
        mapped = [offset for offset, key in enumerate(keys) if key is not None]
        guard = DeterministicRandom(start).fork(
            f"key-map guard/{fingerprint}/{stop}")
        for offset in guard.sample(mapped, min(KEYMAP_GUARD_SAMPLE,
                                                len(mapped))):
            if self.key_for(plan.app_at(start + offset)) != keys[offset]:
                self._store.remove_keymaps(fingerprint, start, stop)
                return [None] * (stop - start)
        return keys

    def flush(self, plan=None, start: int = 0,
              keys: Sequence[str] = ()) -> Optional[str]:
        """Rotate buffered writes into a segment; its path, or None.

        Given a ``plan``, also write the key map of ``keys``, the
        content keys of indices ``start, start + 1, ...`` of its corpus.
        """
        path = self._store.flush()
        if plan is not None:
            self._store.write_keymap(plan.fingerprint(), start, keys)
        return path

    def close(self) -> None:
        """Release segment mappings; unflushed writes are not written."""
        self._store.close()

    @property
    def segment_count(self) -> int:
        """Flushed pack segments currently readable under the root."""
        return self._store.segment_count


def _record_from(key: str, payload: Any) -> Optional[AppAnalysis]:
    """The record a decoded entry holds, or None if it is not a current
    entry of ``key`` (wrong shape, schema or key, or stale versions)."""
    if (type(payload) is not list or len(payload) != _PAYLOAD_LENGTH
            or payload[0] != CACHE_SCHEMA or payload[1] != key):
        return None
    versions = payload[2]
    if type(versions) is not dict:
        return None
    for name, version in versions.items():
        if name == "redirect":
            current: Optional[int] = REDIRECT_SCAN_VERSION
        else:
            current = DETECTOR_VERSIONS.get(name)
        if current != version:
            return None
    values = payload[3:]
    try:
        values[_REDIRECT_TARGETS] = tuple(values[_REDIRECT_TARGETS])
        values[_DETECTORS] = tuple(values[_DETECTORS])
    except TypeError:
        return None
    record = object.__new__(AppAnalysis)
    # Built like analyze_app's records: no frozen-dataclass __init__.
    object.__setattr__(record, "__dict__", dict(zip(_FIELDS, values)))
    return record


#: Interned tally keys: fold_analysis runs once per app, and f-string
#: key construction was a visible slice of the warm path.
_CATEGORY_KEYS: Dict[str, str] = {}
_REDIRECT_COUNT_KEYS: Dict[int, str] = {}


def fold_analysis(stats: AnalysisStats, record: AppAnalysis,
                  preinstalled: bool) -> None:
    """Fold one app's record into the shard tallies."""
    counters = stats.counters
    get = counters.get
    counters["apps"] = get("apps", 0) + 1
    key = _CATEGORY_KEYS.get(record.category)
    if key is None:
        key = _CATEGORY_KEYS[record.category] = f"category/{record.category}"
    counters[key] = get(key, 0) + 1
    counters["instructions"] = get("instructions", 0) + record.instructions
    if record.has_install_api:
        counters["installers"] = get("installers", 0) + 1
    if record.write_external:
        counters["write_external"] = get("write_external", 0) + 1
    if record.unparsed_lines:
        counters["unparsed_lines"] = (
            get("unparsed_lines", 0) + record.unparsed_lines)
        counters["apps_with_unparsed"] = get("apps_with_unparsed", 0) + 1
    if preinstalled:
        counters["instances"] = get("instances", 0) + record.instances
        if record.write_external:
            counters["write_external_instances"] = (
                get("write_external_instances", 0) + record.instances)
    if record.scanned_redirects:
        count = len(record.redirect_targets)
        if count:
            counters["redirect/apps_with_any"] = (
                get("redirect/apps_with_any", 0) + 1)
            key = _REDIRECT_COUNT_KEYS.get(count)
            if key is None:
                key = _REDIRECT_COUNT_KEYS[count] = f"redirect_count/{count}"
            counters[key] = get(key, 0) + 1
            if count == 1:
                counters["redirect/single_predictable"] = (
                    get("redirect/single_predictable", 0) + 1)


# ---------------------------------------------------------------------------
# spec / shard — the engine's second workload kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisSpec:
    """A sharded measurement run (the analysis twin of CampaignSpec).

    ``apps=None`` means paper scale (12,750 Play / 1,613 pre-installed
    unique apps / 1,855 factory images); any other value scales the
    corpus at the paper's trait rates (see :data:`_PLANS`) — for the
    images corpus, ``apps`` counts *images*.
    """

    corpus: str = "play"
    apps: Optional[int] = None
    seed: int = 2016
    observe: bool = False
    chaos: Optional[str] = None
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.corpus not in ANALYSIS_CORPORA:
            raise ReproError(
                f"unknown analysis corpus {self.corpus!r}; "
                f"expected one of {ANALYSIS_CORPORA}")
        if self.apps is not None and self.apps < 1:
            raise ReproError("analysis needs at least one app")
        if self.corpus == "images" and self.apps is not None:
            scaled_image_specs(self.apps)  # CorpusError on infeasible sizes
        parse_chaos(self.chaos)

    @property
    def unit(self) -> str:
        """What one work unit of this corpus is called."""
        return "images" if self.corpus == "images" else "apps"

    @property
    def size(self) -> int:
        """Number of per-index work units (apps or images)."""
        return self.plan().size

    def plan(self):
        """The corpus plan: item ``i`` is its ``app_at(i)``/``image_at(i)``.

        The only map from a corpus name to a plan; building it checks
        the (possibly scaled) spec, so an infeasible one fails here.
        """
        make, paper, scale = _PLANS[self.corpus]
        return make(self.seed,
                    paper if self.apps is None else scale(self.apps))

    def shard(self, count: int) -> List["AnalysisShardSpec"]:
        """Partition ``[0, size)`` into ``count`` contiguous shards."""
        slices = partition(self, self.size, count)
        return [AnalysisShardSpec(self, index, count, start, stop)
                for index, (start, stop) in enumerate(slices)]


@functools.lru_cache(maxsize=2)
def _image_plan(seed: int, specs) -> FactoryImagePlan:
    """Per-process plan memo: shards in one worker share the fleet."""
    return FactoryImagePlan(seed, specs)


#: Each corpus name's ``(plan factory, paper-scale spec, scaler)``.
_PLANS = {
    "play": (PlayCorpusPlan, PlayCorpusSpec(), scaled_play_spec),
    "preinstalled": (PreinstalledCorpusPlan, PreinstalledCorpusSpec(),
                     scaled_preinstalled_spec),
    "images": (_image_plan, ALL_SPECS, scaled_image_specs),
}


@dataclass(frozen=True)
class AnalysisShardSpec(ShardSlice):
    """One contiguous slice ``[start, stop)`` of the analysis workload."""

    campaign: AnalysisSpec

    def run(self, recorder, metrics) -> Tuple[AnalysisStats, Dict[str, int]]:
        """Fold the slice's apps or images into fresh stats."""
        if self.campaign.corpus == "images":
            return self._execute_images(recorder), {}
        return self._execute_apps(recorder)

    # -- per-app passes (classifier + redirect scan) --------------------------

    def _execute_apps(self, recorder) -> Tuple[AnalysisStats, Dict[str, int]]:
        """The app passes; the counters are the cache's hits and misses.

        Those depend on what a previous run left in the cache
        directory, while the stats, trace and metrics must stay
        bit-identical whether the cache was cold or warm.
        """
        spec = self.campaign
        stats = AnalysisStats()
        plan = spec.plan()
        classifier = InstallerClassifier()
        cache = (AnalysisCache(spec.cache_dir)
                 if spec.cache_dir is not None else None)
        preinstalled = spec.corpus == "preinstalled"
        start, stop = self.start, self.stop
        misses = 0
        keys: List[Optional[str]] = [None] * (stop - start)
        unmapped = False
        try:
            if cache is not None:
                keys = cache.mapped_keys(plan, start, stop)
            for index in range(start, stop):
                # A mapped key reaches its record with no app built.
                key = keys[index - start]
                record = cache.load(key) if key is not None else None
                if record is None:
                    app = plan.app_at(index)
                    if cache is not None:
                        actual = cache.key_for(app)
                        if actual != key:  # unmapped, or the map is wrong
                            keys[index - start] = key = actual
                            unmapped = True
                            record = cache.load(key)
                    if record is None:
                        record = analyze_app(app, classifier,
                                             scan_redirects=not preinstalled)
                        misses += 1
                        if cache is not None:
                            cache.store(key, record)
                fold_analysis(stats, record, preinstalled)
                if recorder is not None:
                    # Simulated time = the app's global index: identical
                    # records for any shard split, cold or warm cache.
                    recorder.span(
                        "analysis/app",
                        start_ns=index * 1000,
                        end_ns=index * 1000 + record.instructions,
                        package=record.package,
                        category=record.category,
                    )
            if cache is not None:
                # One segment per shard: the warm re-run opens O(shards)
                # index files instead of one JSON per analyzed app.  A
                # shard that had to key an index itself also writes
                # its range's key map.
                cache.flush(plan if unmapped else None, start, keys)
        finally:
            if cache is not None:
                cache.close()
        return stats, {"cache_hits": stop - start - misses,
                       "cache_misses": misses}

    # -- per-image passes (hare + platform keys, Section IV-B) ----------------

    def _execute_images(self, recorder) -> AnalysisStats:
        stats = AnalysisStats()
        plan = self.campaign.plan()
        fleet = plan.fleet()
        hare_pairs = plan.hare_pairs
        hare_perms = [permission for _pkg, permission in hare_pairs]
        search_ids = set(fleet.search_image_ids)
        sample_ids = set(fleet.sample_image_ids)
        for package, permission in hare_pairs:
            stats.mark("hare/apps", f"{package}|{permission}")
        for index in range(self.start, self.stop):
            image = plan.image_at(index)
            vendor = image.vendor
            stats.bump("images")
            stats.bump(f"vendor/{vendor}/images")
            stats.bump(f"vendor/{vendor}/apps", len(image.apps))
            install_packages = len(image.install_packages_apps())
            stats.bump(f"vendor/{vendor}/install_packages", install_packages)
            stats.bump(f"year/{image.year_index}/images")
            stats.bump(f"year/{image.year_index}/install_packages",
                       install_packages)
            if image.flagship:
                stats.mark("flagship/install_packages", str(install_packages))
            stats.mark(f"platform_key/{vendor}",
                       platform_key(vendor).certificate.fingerprint)
            for app in image.apps:
                if app.platform_signed:
                    stats.bump(f"vendor/{vendor}/platform_signed_instances")
                    stats.mark(f"platform/{vendor}", app.package)
            for package in _TABLE5_PACKAGES:
                if image.has_package(package):
                    stats.bump(f"table5/{package}/images")
                    stats.mark(f"table5/{package}/carriers", image.carrier)
                    stats.mark(f"table5/{package}/vendors", image.vendor)
                    stats.mark(f"table5/{package}/models", image.model)
            if image.image_id in search_ids:
                defined = image.defined_permissions()
                missing = sum(1 for permission in hare_perms
                              if permission not in defined)
                stats.bump("hare/cases", missing)
                stats.bump("hare/searched_images")
            if image.image_id in sample_ids:
                stats.bump("hare/sample_images")
            if recorder is not None:
                recorder.span(
                    "analysis/image",
                    start_ns=index * 1000,
                    end_ns=index * 1000 + len(image.apps),
                    image_id=image.image_id,
                    vendor=vendor,
                )
        return stats


# ---------------------------------------------------------------------------
# merged report
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport(ShardedReport):
    """The measurement-study report (``repro analyze``)."""

    spec: AnalysisSpec
    stats: AnalysisStats = field(default_factory=AnalysisStats)

    @classmethod
    def from_shards(cls, spec, shards, **run) -> "AnalysisReport":
        return cls._fold(merge_analysis_stats, spec, shards, **run)

    @property
    def cache_hits(self) -> int:
        """Apps served from the content-addressed cache."""
        return self.counters.get("cache_hits", 0)

    @property
    def cache_misses(self) -> int:
        """Apps actually (re-)analyzed this run."""
        return self.counters.get("cache_misses", 0)

    def trace_records(self) -> List[Dict[str, Any]]:
        """All shard records, shard-index order, *not* shard-tagged.

        Analysis records already carry the global app index as their
        time axis, so concatenating shards in index order reproduces
        the serial record stream exactly — the JSONL export is
        byte-identical for any shard/worker split.
        """
        records: List[Dict[str, Any]] = []
        for shard in self.shards:
            records.extend(shard.trace or ())
        return records

    def render(self) -> str:
        """Deterministic table text (no wall-clock, no cache state)."""
        spec = self.spec
        lines = [f"analysis: corpus={spec.corpus} size={spec.size} "
                 f"seed={spec.seed}"]
        if spec.corpus == "images":
            lines += self._render_images()
        else:
            lines += self._render_corpus()
        return "\n".join(lines)

    def _render_corpus(self) -> List[str]:
        stats = self.stats
        counts = table3_counts(stats)
        total = counts["total"]
        lines = [
            f"  apps analyzed           : {total}",
            f"  installers              : {counts['installers']}",
            f"    potentially vulnerable: {counts['vulnerable']}",
            f"    potentially secure    : {counts['secure']}",
            f"    unknown               : {counts['unknown']}",
            "  not an installer        : "
            f"{stats.count('category/not-an-installer')}",
            f"  WRITE_EXTERNAL apps     : {counts['write_external']}",
        ]
        if self.spec.corpus == "preinstalled":
            lines += [
                f"  app instances           : {counts['instances']}",
                "  WRITE_EXTERNAL instances: "
                f"{counts['write_external_instances']}",
            ]
        else:
            buckets = table4_counts(stats)
            any_count = stats.count("redirect/apps_with_any")
            share = 100.0 * any_count / total if total else 0.0
            lines.append(
                f"  redirecting apps        : {any_count} ({share:.1f}%)")
            for limit in (1, 2, 4, 8):
                count = buckets[limit]
                pct = 100.0 * count / total if total else 0.0
                lines.append(
                    f"    <= {limit} hardcoded target(s): "
                    f"{count} ({pct:.1f}%)")
        if stats.count("apps_with_unparsed"):
            lines.append(
                f"  apps with unparsed lines: "
                f"{stats.count('apps_with_unparsed')} "
                f"({stats.count('unparsed_lines')} line(s))")
        return lines

    def _render_images(self) -> List[str]:
        stats = self.stats
        hare = hare_counts(stats)
        searched = hare["searched_images"]
        lines = [
            f"  images analyzed         : {stats.count('images')}",
            f"  hare apps (sample step) : {hare['apps']}",
            f"  hare vulnerable cases   : {hare['cases']} over "
            f"{searched} searched image(s)",
        ]
        if searched:
            lines.append(
                f"  hare cases per image    : {hare['cases'] / searched:.1f}")
        for vendor, counts in platform_counts(stats).items():
            images = counts["images"]
            if not images:
                continue
            lines.append(
                f"  {vendor:<8}: {images} image(s), "
                f"{stats.count(f'vendor/{vendor}/apps') / images:.1f} "
                "apps/image, "
                f"{stats.count(f'vendor/{vendor}/install_packages') / images:.1f}"
                " INSTALL_PACKAGES/image, "
                f"{counts['signed_packages']} distinct "
                "platform-signed package(s)")
        lines.append("  Table V (vulnerable pre-installed installers):")
        for package, counts in table5_counts(stats).items():
            lines.append(
                f"    {package:<28}: {counts['images']} image(s), "
                f"{counts['carriers']} carrier(s), "
                f"{counts['models']} model(s)")
        return lines


#: The report type the executor assembles for this spec kind.
AnalysisSpec.report_class = AnalysisReport


# ---------------------------------------------------------------------------
# table extraction: the only source of Tables II-VI and the Section IV-B
# findings, read by repro.measurement.tables
# ---------------------------------------------------------------------------


def table2_counts(stats: AnalysisStats) -> Dict[str, int]:
    """Table II/III shape from merged stats (installer breakdown)."""
    return {
        "total": stats.count("apps"),
        "installers": stats.count("installers"),
        "vulnerable": stats.count("category/potentially-vulnerable"),
        "secure": stats.count("category/potentially-secure"),
        "unknown": stats.count("category/unknown"),
        "write_external": stats.count("write_external"),
    }


def table3_counts(stats: AnalysisStats) -> Dict[str, int]:
    """Table III shape: unique + instance-weighted pre-installed counts."""
    counts = table2_counts(stats)
    counts["instances"] = stats.count("instances")
    counts["write_external_instances"] = stats.count(
        "write_external_instances")
    return counts


def table4_counts(stats: AnalysisStats) -> Dict[int, int]:
    """Table IV columns: apps with 1..limit hardcoded targets."""
    exact = {}
    for name, value in stats.counters.items():
        if name.startswith("redirect_count/"):
            exact[int(name.split("/", 1)[1])] = value
    return {
        limit: sum(value for count, value in exact.items()
                   if 1 <= count <= limit)
        for limit in (1, 2, 4, 8)
    }


def table5_counts(stats: AnalysisStats) -> Dict[str, Dict[str, int]]:
    """Table V shape: per-installer image/carrier/vendor/model impact."""
    return {
        package: {
            "images": stats.count(f"table5/{package}/images"),
            "carriers": stats.cardinality(f"table5/{package}/carriers"),
            "vendors": stats.cardinality(f"table5/{package}/vendors"),
            "models": stats.cardinality(f"table5/{package}/models"),
        }
        for package in _TABLE5_PACKAGES
    }


def table6_counts(stats: AnalysisStats) -> Dict[str, Any]:
    """Table VI shape: per-vendor and per-year totals, flagship range.

    ``vendors`` holds image/app/INSTALL_PACKAGES totals per vendor,
    ``years`` image/INSTALL_PACKAGES totals per year index (0 = 2012),
    ``flagship_range`` the (min, max) INSTALL_PACKAGES of flagships.
    """
    flagship = [int(count) for count in
                stats.sets.get("flagship/install_packages", ())]
    return {
        "vendors": {spec.vendor: {
            kind: stats.count(f"vendor/{spec.vendor}/{kind}")
            for kind in ("images", "apps", "install_packages")}
            for spec in ALL_SPECS},
        "years": {index: {
            kind: stats.count(f"year/{index}/{kind}")
            for kind in ("images", "install_packages")}
            for index in range(4)},
        "flagship_range": ((min(flagship), max(flagship)) if flagship
                           else (0, 0)),
    }


def hare_counts(stats: AnalysisStats) -> Dict[str, int]:
    """Section IV-B Hare shape: the sample step and the image search.

    ``apps`` counts (package, permission) hare pairs on the sample
    images, ``permissions`` their distinct permissions, ``cases`` the
    (permission, image) pairs no app on a search image defines.
    """
    pairs = stats.members("hare/apps")
    return {
        "apps": len(pairs),
        "permissions": len({pair.split("|", 1)[1] for pair in pairs}),
        "cases": stats.count("hare/cases"),
        "sample_images": stats.count("hare/sample_images"),
        "searched_images": stats.count("hare/searched_images"),
    }


def platform_counts(stats: AnalysisStats) -> Dict[str, Dict[str, int]]:
    """Section IV-B platform-key shape per vendor.

    ``keys`` counts the distinct platform certificates on the vendor's
    images, ``signed_instances`` the platform-signed app instances over
    all its images, ``signed_packages`` the distinct platform-signed
    packages.
    """
    return {spec.vendor: {
        "images": stats.count(f"vendor/{spec.vendor}/images"),
        "keys": stats.cardinality(f"platform_key/{spec.vendor}"),
        "signed_instances": stats.count(
            f"vendor/{spec.vendor}/platform_signed_instances"),
        "signed_packages": stats.cardinality(f"platform/{spec.vendor}"),
    } for spec in ALL_SPECS}


# ---------------------------------------------------------------------------
# one-call entry point
# ---------------------------------------------------------------------------


def run_analysis(spec: AnalysisSpec, shards: Optional[int] = None,
                 workers: Optional[int] = None, backend: str = "auto",
                 progress=None,
                 profile_shards: bool = False) -> AnalysisReport:
    """Run a sharded analysis and return the merged report.

    The analysis workload rides the same pool, retry, chaos, progress
    and wall-clock telemetry machinery as install campaigns: this is
    :func:`repro.engine.executor.run_fleet` with the same arguments.
    """
    from repro.engine.executor import run_fleet

    return run_fleet(spec, shards=shards, workers=workers, backend=backend,
                     progress=progress, profile_shards=profile_shards)
