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

Every shard folds into an :class:`AnalysisStats` — counters that add
and string sets that union, associatively, in shard-index order — so
the merged result is bit-identical for any shard/worker split, the
same determinism contract the install engine carries.  Trace records
use the app's *global index* as the simulated-time axis and are never
shard-tagged, so the exported JSONL is byte-identical across splits
too.

A content-addressed cache (key = sha256 of the smali text) makes
re-runs incremental: each entry records the *detector versions its
verdict consulted* (see
:data:`~repro.analysis.classifier.DETECTOR_VERSIONS`), so bumping one
detector's version re-analyzes only the apps whose code exercised that
detector.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.cache import DEFAULT_ROTATE_RECORDS, PackStore
from repro.analysis.classifier import (
    DETECTOR_VERSIONS,
    InstallerClassifier,
)
from repro.analysis.corpus import (
    WRITE_EXTERNAL,
    CorpusApp,
    PlayCorpusSpec,
    PreinstalledCorpusSpec,
    corpus_plan,
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
from repro.analysis.hare_analysis import find_hare_apps
from repro.analysis.redirect_scan import redirect_targets
from repro.analysis.smali import parse_program
from repro.engine.spec import parse_chaos
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, Snapshot, merge_snapshots
from repro.obs.trace import TraceRecorder

#: Bump on incompatible cache-entry layout changes.
CACHE_SCHEMA = 1
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


class AnalysisCache:
    """Content-addressed per-app analysis cache.

    Keys are the sha256 of the app's smali text; entries carry the
    version of every detector the verdict consulted.  A lookup misses
    when any consulted detector's current version differs — so bumping
    ``DETECTOR_VERSIONS["chmod"]`` re-analyzes exactly the apps whose
    code reached the chmod detector, and nothing else.

    Storage is the :class:`~repro.analysis.cache.PackStore` pack
    format: :meth:`store` encodes each entry once into an in-memory
    buffer and :meth:`flush` (called once per shard) frames it into one
    append-only, sha256-verified segment plus its fanout index, so a
    warm run does O(segments) opens instead of one per app.  Hits are
    read from a read-only mapping of the segment and re-verified;
    :meth:`close` releases those mappings.
    """

    def __init__(self, root: str,
                 rotate_records: int = DEFAULT_ROTATE_RECORDS) -> None:
        self.root = root
        self._store = PackStore(root, rotate_records=rotate_records)

    @staticmethod
    def key_for(app: CorpusApp) -> str:
        """sha256 of the smali text — the content address."""
        return hashlib.sha256(app.smali_text.encode("utf-8")).hexdigest()

    def load(self, key: str) -> Optional[AppAnalysis]:
        """The cached record, or None on miss / stale detector versions."""
        payload = self._store.get(key)
        if payload is None:
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            return None
        for name, version in payload.get("versions", {}).items():
            if name == "redirect":
                current: Optional[int] = REDIRECT_SCAN_VERSION
            else:
                current = DETECTOR_VERSIONS.get(name)
            if current != version:
                return None
        record = payload.get("record")
        if not isinstance(record, dict):
            return None
        try:
            fields = {
                "package": record["package"],
                "category": record["category"],
                "has_install_api": record["has_install_api"],
                "uses_sdcard": record["uses_sdcard"],
                "sets_world_readable": record["sets_world_readable"],
                "unresolved_setter": record["unresolved_setter"],
                "redirect_targets": tuple(record["redirect_targets"]),
                "instructions": record["instructions"],
                "unparsed_lines": record["unparsed_lines"],
                "detectors": tuple(record["detectors"]),
                "scanned_redirects": record["scanned_redirects"],
                "write_external": record["write_external"],
                "instances": record["instances"],
            }
        except (KeyError, TypeError):
            return None
        loaded = object.__new__(AppAnalysis)
        # Built like analyze_app's records: no frozen-dataclass __init__.
        object.__setattr__(loaded, "__dict__", fields)
        return loaded

    def store(self, key: str, record: AppAnalysis) -> None:
        """Buffer ``record`` with its consulted detector versions."""
        versions = {name: DETECTOR_VERSIONS[name]
                    for name in record.detectors
                    if name in DETECTOR_VERSIONS}
        if record.scanned_redirects:
            versions["redirect"] = REDIRECT_SCAN_VERSION
        # Flat fields (str, bool, int, tuple of str): the record's own
        # __dict__ encodes exactly as asdict() would, and put encodes it.
        self._store.put(key, {
            "schema": CACHE_SCHEMA,
            "key": key,
            "versions": versions,
            "record": record.__dict__,
        })

    def flush(self) -> Optional[str]:
        """Rotate buffered writes into a segment; its path, or None."""
        return self._store.flush()

    def close(self) -> None:
        """Release segment mappings; unflushed writes are not written."""
        self._store.close()

    def iter_entries(self) -> Iterable[Tuple[str, Dict[str, int], dict]]:
        """``(key, versions, record-dict)`` for every stored entry.

        Walks pack segments and the unflushed write buffer — the
        test/inspection view of the cache.
        """
        for payload in self._store.iter_payloads():
            key = payload.get("key")
            record = payload.get("record")
            if isinstance(key, str) and isinstance(record, dict):
                yield key, payload.get("versions", {}), record

    @property
    def segment_count(self) -> int:
        """Flushed pack segments currently readable under the root."""
        return self._store.segment_count


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
# spec / shard / result — the engine's second workload kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisSpec:
    """A sharded measurement run (the analysis twin of CampaignSpec).

    ``apps=None`` means paper scale (12,750 Play / 1,613 pre-installed
    unique apps / 1,855 factory images); any other value scales the
    corpus spec at the paper's trait rates via
    :func:`~repro.analysis.corpus.scaled_play_spec` and friends — for
    the images corpus, ``apps`` counts *images* and scales the fleet
    through :func:`~repro.analysis.factory_images.scaled_image_specs`.
    """

    corpus: str = "play"
    apps: Optional[int] = None
    seed: int = 2016
    observe: bool = False
    chaos: Optional[str] = None
    cache_dir: Optional[str] = None

    #: Report type the executor assembles for this spec.
    report_class: ClassVar[type] = None  # set below, after AnalysisReport

    def __post_init__(self) -> None:
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
    def installs(self) -> int:
        """Workload size under the fleet progress hooks' name."""
        return self.size

    @property
    def size(self) -> int:
        """Number of per-index work units (apps or images)."""
        if self.corpus == "images":
            return sum(spec.image_count for spec in self.image_specs())
        return self.corpus_spec_size()

    def corpus_spec(self):
        """The (possibly scaled) corpus calibration spec."""
        if self.corpus == "play":
            return (scaled_play_spec(self.apps) if self.apps is not None
                    else PlayCorpusSpec())
        if self.corpus == "preinstalled":
            return (scaled_preinstalled_spec(self.apps)
                    if self.apps is not None else PreinstalledCorpusSpec())
        return None

    def image_specs(self):
        """The (possibly scaled) per-vendor fleet specs."""
        return (scaled_image_specs(self.apps) if self.apps is not None
                else ALL_SPECS)

    def corpus_spec_size(self) -> int:
        spec = self.corpus_spec()
        return spec.total if self.corpus == "play" else spec.unique_apps

    def plan(self):
        """The streaming corpus plan (validates the spec up front)."""
        if self.corpus == "images":
            return _image_plan(self.seed, self.image_specs())
        return corpus_plan(self.corpus, self.seed, self.corpus_spec())

    def shard(self, count: int) -> List["AnalysisShardSpec"]:
        """Partition ``[0, size)`` into ``count`` contiguous shards."""
        if count < 1:
            raise ReproError(f"shard count must be >= 1, got {count}")
        parse_chaos(self.chaos, shard_count=count)
        self.plan()  # fail on an infeasible spec before any work runs
        base, extra = divmod(self.size, count)
        shards, start = [], 0
        for index in range(count):
            stop = start + base + (1 if index < extra else 0)
            shards.append(AnalysisShardSpec(
                campaign=self, index=index, count=count,
                start=start, stop=stop))
            start = stop
        return shards


@functools.lru_cache(maxsize=2)
def _image_plan(seed: int, specs) -> FactoryImagePlan:
    """Per-process plan memo: shards in one worker share the fleet."""
    return FactoryImagePlan(seed, specs)


@functools.lru_cache(maxsize=2)
def _hare_permissions(seed: int, specs) -> Tuple[Tuple[str, str], ...]:
    """(package, permission) hare pairs from the sample images."""
    return tuple((hare.package, hare.permission)
                 for hare in find_hare_apps(_image_plan(seed, specs).fleet()))


@dataclass(frozen=True)
class AnalysisShardSpec:
    """One contiguous slice ``[start, stop)`` of the analysis workload.

    The field is called ``campaign`` so the executor's chaos-injection
    and retry plumbing (which reads ``shard.campaign.chaos``) works on
    analysis shards unchanged.
    """

    campaign: AnalysisSpec
    index: int
    count: int
    start: int
    stop: int

    def execute(self) -> "AnalysisShardResult":
        """Run this shard in the current process (the engine's unit)."""
        started = time.perf_counter()
        spec = self.campaign
        recorder = TraceRecorder() if spec.observe else None
        metrics = MetricsRegistry() if spec.observe else None
        stats = AnalysisStats()
        if spec.corpus == "images":
            self._execute_images(stats, recorder, metrics)
            hits = misses = 0
        else:
            hits, misses = self._execute_apps(stats, recorder, metrics)
        return AnalysisShardResult(
            shard_index=self.index,
            start=self.start,
            stop=self.stop,
            stats=stats,
            wall_seconds=time.perf_counter() - started,
            backend="serial",
            trace=recorder.records() if recorder is not None else None,
            metrics=metrics.snapshot() if metrics is not None else None,
            cache_hits=hits,
            cache_misses=misses,
        )

    # -- per-app passes (classifier + redirect scan) --------------------------

    def _execute_apps(self, stats: AnalysisStats, recorder, metrics
                      ) -> Tuple[int, int]:
        spec = self.campaign
        plan = spec.plan()
        classifier = InstallerClassifier()
        cache = (AnalysisCache(spec.cache_dir)
                 if spec.cache_dir is not None else None)
        preinstalled = spec.corpus == "preinstalled"
        hits = misses = 0
        try:
            for index in range(self.start, self.stop):
                app = plan.app_at(index)
                record = None
                key = None
                if cache is not None:
                    key = cache.key_for(app)
                    record = cache.load(key)
                if record is None:
                    record = analyze_app(app, classifier,
                                         scan_redirects=not preinstalled)
                    misses += 1
                    if cache is not None:
                        cache.store(key, record)
                else:
                    hits += 1
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
                if metrics is not None:
                    metrics.counter("analysis/apps").inc()
                    if record.has_install_api:
                        metrics.counter("analysis/installers").inc()
                    metrics.histogram(
                        "analysis/instructions_per_app").observe(
                            record.instructions)
            if cache is not None:
                # One segment per shard: the warm re-run opens O(shards)
                # index files instead of one JSON per analyzed app.
                cache.flush()
        finally:
            if cache is not None:
                cache.close()
        return hits, misses

    # -- per-image passes (hare + platform keys, Section IV-B) ----------------

    def _execute_images(self, stats: AnalysisStats, recorder,
                        metrics) -> None:
        spec = self.campaign
        plan = _image_plan(spec.seed, spec.image_specs())
        fleet = plan.fleet()
        hare_pairs = _hare_permissions(spec.seed, spec.image_specs())
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
            if metrics is not None:
                metrics.counter("analysis/images").inc()
                metrics.histogram("analysis/apps_per_image").observe(
                    len(image.apps))


@dataclass
class AnalysisShardResult:
    """What one analysis shard produced (mirrors ShardResult's shape).

    ``cache_hits``/``cache_misses`` live beside the deterministic stats,
    not inside them: hit counts depend on what a previous run left in
    the cache directory, while ``stats``/``trace``/``metrics`` must stay
    bit-identical whether the cache was cold or warm.
    """

    shard_index: int
    start: int
    stop: int
    stats: AnalysisStats
    wall_seconds: float
    attempts: int = 1
    backend: str = "serial"
    trace: Optional[List[Dict[str, Any]]] = None
    metrics: Optional[Snapshot] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock side channel (see :mod:`repro.obs.runtime`), filled
    #: by the executor when telemetry/profiling is enabled; never part
    #: of the deterministic stats/trace/metrics.
    telemetry: Optional[Dict[str, Any]] = None
    profile: Optional[bytes] = None


# ---------------------------------------------------------------------------
# merged report
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Merged analysis stats plus run-level aggregates."""

    spec: AnalysisSpec
    shards: List[AnalysisShardResult] = field(default_factory=list)
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    wall_seconds: float = 0.0
    workers: int = 1
    backend: str = "serial"
    metrics: Optional[Snapshot] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock plane: fold of per-shard telemetry payloads, None
    #: when telemetry was off (see :mod:`repro.obs.runtime`).
    telemetry: Optional[Dict[str, Any]] = None

    @classmethod
    def from_shards(cls, spec: AnalysisSpec,
                    shards: List[AnalysisShardResult],
                    wall_seconds: float, workers: int, backend: str,
                    counters: Optional[Dict[str, int]] = None,
                    ) -> "AnalysisReport":
        from repro.obs.runtime import fold_shard_telemetry

        ordered = sorted(shards, key=lambda shard: shard.shard_index)
        snapshots = [shard.metrics for shard in ordered
                     if shard.metrics is not None]
        tallied = dict(counters or {})
        tallied["cache_hits"] = sum(s.cache_hits for s in ordered)
        tallied["cache_misses"] = sum(s.cache_misses for s in ordered)
        telemetry = fold_shard_telemetry(ordered)
        if telemetry is not None:
            telemetry["retries"] = sum(
                max(0, shard.attempts - 1) for shard in ordered)
        return cls(
            spec=spec,
            shards=ordered,
            stats=merge_analysis_stats(shard.stats for shard in ordered),
            wall_seconds=wall_seconds,
            workers=workers,
            backend=backend,
            metrics=merge_snapshots(snapshots) if snapshots else None,
            counters=tallied,
            telemetry=telemetry,
        )

    @property
    def cache_hits(self) -> int:
        """Apps served from the content-addressed cache."""
        return self.counters.get("cache_hits", 0)

    @property
    def cache_misses(self) -> int:
        """Apps actually (re-)analyzed this run."""
        return self.counters.get("cache_misses", 0)

    @property
    def throughput(self) -> float:
        """Apps (or images) per wall-clock second."""
        return self.stats.runs / self.wall_seconds if self.wall_seconds else 0.0

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
        lines = [
            f"  images analyzed         : {stats.count('images')}",
            f"  hare apps (sample step) : {stats.cardinality('hare/apps')}",
            f"  hare vulnerable cases   : {stats.count('hare/cases')} over "
            f"{stats.count('hare/searched_images')} searched image(s)",
        ]
        searched = stats.count("hare/searched_images")
        if searched:
            lines.append(
                f"  hare cases per image    : "
                f"{stats.count('hare/cases') / searched:.1f}")
        for vendor_spec in ALL_SPECS:
            vendor = vendor_spec.vendor
            images = stats.count(f"vendor/{vendor}/images")
            if not images:
                continue
            lines.append(
                f"  {vendor:<8}: {images} image(s), "
                f"{stats.count(f'vendor/{vendor}/apps') / images:.1f} "
                "apps/image, "
                f"{stats.count(f'vendor/{vendor}/install_packages') / images:.1f}"
                " INSTALL_PACKAGES/image, "
                f"{stats.cardinality(f'platform/{vendor}')} distinct "
                "platform-signed package(s)")
        lines.append("  Table V (vulnerable pre-installed installers):")
        for package, counts in table5_counts(stats).items():
            lines.append(
                f"    {package:<28}: {counts['images']} image(s), "
                f"{counts['carriers']} carrier(s), "
                f"{counts['models']} model(s)")
        return lines


AnalysisSpec.report_class = AnalysisReport


# ---------------------------------------------------------------------------
# table extraction: the only source of Tables II-VI, read by
# repro.measurement.tables
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


# ---------------------------------------------------------------------------
# one-call entry point
# ---------------------------------------------------------------------------


def run_analysis(spec: AnalysisSpec, shards: Optional[int] = None,
                 workers: Optional[int] = None, backend: str = "auto",
                 progress=None, telemetry: bool = False,
                 profile_shards: bool = False) -> AnalysisReport:
    """Run a sharded analysis and return the merged report.

    A thin wrapper over :class:`~repro.engine.executor.FleetExecutor`
    — the analysis workload rides the same pool, retry, chaos,
    progress and wall-clock telemetry machinery as install campaigns
    (``telemetry``/``profile_shards`` as in
    :func:`repro.engine.executor.run_fleet`).
    """
    from repro.engine.executor import FleetExecutor
    from repro.engine.progress import NullProgress

    executor = FleetExecutor(workers=workers, backend=backend,
                             progress=progress or NullProgress(),
                             telemetry=telemetry,
                             profile_shards=profile_shards)
    try:
        return executor.run(spec, shards=shards)
    finally:
        executor.close()
