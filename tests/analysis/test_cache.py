"""Pack-format cache: segments, indexes, format pins, corruption."""

import dataclasses
import gc
import hashlib
import itertools
import json
import os
import pathlib
import struct
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro import durable
from repro.analysis import cache as cache_module
from repro.analysis import corpus as corpus_mod
from repro.analysis import pipeline as pipeline_mod
from repro.analysis.cache import PackStore
from repro.analysis.corpus import PlayCorpusPlan, scaled_play_spec
from repro.analysis.classifier import DETECTOR_VERSIONS, InstallerClassifier
from repro.analysis.pipeline import (
    CACHE_SCHEMA,
    REDIRECT_SCAN_VERSION,
    AnalysisCache,
    AnalysisSpec,
    analyze_app,
    run_analysis,
)

#: The segment ``populate(apps=40, seed=7)`` writes: its name and the
#: sha256 of both files.  Any change to the on-disk format moves these.
GOLDEN_SEGMENT = "seg-ef570bc5b32877d7"
GOLDEN_PACK_SHA256 = (
    "568d3066f15c233a0c03ee11a682327ad8db00f6f3ff77b7c272750e56ab5908")
GOLDEN_IDX_SHA256 = (
    "8471356699a5dc3e09ce86bb5e445435d2ae7ee8964ec9b42e17919f37035669")


def canonical(payload):
    """The oracle for a payload's stored bytes."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def run_serial(spec, shards):
    return run_analysis(spec, shards=shards, backend="serial")


def populate(root, apps=40, seed=7):
    """Analyze ``apps`` Play apps into a cache at ``root``; the keys."""
    cache = AnalysisCache(str(root))
    plan = PlayCorpusPlan(seed=seed, spec=scaled_play_spec(apps))
    classifier = InstallerClassifier()
    keys = []
    for index in range(apps):
        app = plan.app_at(index)
        key = cache.key_for(app)
        cache.store(key, analyze_app(app, classifier))
        keys.append(key)
    cache.flush()
    return keys


# -- pack round trip --------------------------------------------------------------


def test_pack_round_trip_and_segment_layout(tmp_path):
    keys = populate(tmp_path)
    names = sorted(os.listdir(tmp_path))
    packs = [name for name in names if name.endswith(".pack")]
    idxs = [name for name in names if name.endswith(".idx")]
    assert len(packs) == len(idxs) == 1
    # No legacy per-app fanout directories are created anymore.
    assert not [name for name in names if os.path.isdir(tmp_path / name)]
    fresh = AnalysisCache(str(tmp_path))
    assert fresh.segment_count == 1
    for key in keys:
        record = fresh.load(key)
        assert record is not None and record.instructions > 0
    assert fresh.load("ff" * 32) is None


def test_flush_is_idempotent_and_content_addressed(tmp_path):
    populate(tmp_path, apps=10, seed=7)
    first = sorted(os.listdir(tmp_path))
    # Re-analyzing the identical content produces the identical segment
    # name, so the re-flush replaces rather than duplicates.
    populate(tmp_path, apps=10, seed=7)
    assert sorted(os.listdir(tmp_path)) == first


def test_put_rotates_past_record_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "ROTATE_RECORDS", 4)
    store = PackStore(str(tmp_path))
    for index in range(10):
        key = f"{index:02x}" * 32
        store.put(key, canonical({"key": key, "value": index}))
    store.flush()
    packs = [name for name in os.listdir(tmp_path)
             if name.endswith(".pack")]
    assert len(packs) == 3  # 4 + 4 + 2
    fresh = PackStore(str(tmp_path))
    for index in range(10):
        key = f"{index:02x}" * 32
        assert fresh.get(key) == {"key": key, "value": index}


def test_identical_reflush_replaces_its_segment(tmp_path):
    store = PackStore(str(tmp_path))
    key = "ab" * 32
    store.put(key, canonical({"key": key, "value": 1}))
    first = store.flush()
    assert store.get(key) == {"key": key, "value": 1}  # maps the segment
    store.put(key, canonical({"key": key, "value": 1}))
    assert store.flush() == first
    assert store.segment_count == 1
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(first)[:-len(".pack")] + suffix
        for suffix in (".idx", ".pack"))
    assert store.get(key) == {"key": key, "value": 1}
    store.close()


# -- format pins -------------------------------------------------------------------


def _sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_golden_segment_bytes(tmp_path):
    populate(tmp_path, apps=40, seed=7)
    assert sorted(os.listdir(tmp_path)) == [GOLDEN_SEGMENT + ".idx",
                                           GOLDEN_SEGMENT + ".pack"]
    stem = tmp_path / GOLDEN_SEGMENT
    assert _sha256_file(f"{stem}.pack") == GOLDEN_PACK_SHA256
    assert _sha256_file(f"{stem}.idx") == GOLDEN_IDX_SHA256


def _raw_payloads(root):
    """Every payload blob in the segments under ``root``, by key.

    Walks the framing directly (16-byte header, then ``u32 length |
    32-byte digest | payload`` records) without the cache's reader.
    """
    payloads = {}
    for path in _segment_paths(root):
        with open(path, "rb") as handle:
            blob = handle.read()
        (count,) = struct.unpack_from("<Q", blob, 8)
        offset = 16
        for _ in range(count):
            (length,) = struct.unpack_from("<I", blob, offset)
            payload = blob[offset + 36:offset + 36 + length]
            payloads[json.loads(payload)["key"]] = payload
            offset += 36 + length
    return payloads


def _reference_payload(key, record):
    """The entry as the asdict()/json.dumps writer encoded it."""
    versions = {name: DETECTOR_VERSIONS[name] for name in record.detectors
                if name in DETECTOR_VERSIONS}
    if record.scanned_redirects:
        versions["redirect"] = REDIRECT_SCAN_VERSION
    return canonical({"schema": CACHE_SCHEMA, "key": key,
                      "versions": versions,
                      "record": dataclasses.asdict(record)})


def test_stored_bytes_match_asdict_encoding(tmp_path):
    classifier = InstallerClassifier()
    for kind in ("play", "preinstalled"):
        root = tmp_path / kind
        cache = AnalysisCache(str(root))
        plan = AnalysisSpec(corpus=kind, apps=500, seed=11).plan()
        expected = {}
        for index in range(500):
            app = plan.app_at(index)
            key = cache.key_for(app)
            record = analyze_app(app, classifier,
                                 scan_redirects=kind == "play")
            cache.store(key, record)
            expected[key] = _reference_payload(key, record)
        cache.flush()
        assert _raw_payloads(root) == expected


_TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x08\x1f\x7f\x80\u2028\xe9\u20ac\U0001f600'),
    st.text(alphabet=st.characters(min_codepoint=0xD800,
                                   max_codepoint=0xDFFF)),  # lone surrogates
)
_INTS = st.one_of(st.integers(-5, 5),
                  st.integers(-(2 ** 80), 2 ** 80))
_DETECTORS = st.lists(st.sampled_from(sorted(DETECTOR_VERSIONS)
                                      + ["redirect", "unknown"]),
                      max_size=8).map(tuple)
_RECORDS = st.builds(
    pipeline_mod.AppAnalysis,
    package=_TEXT, category=_TEXT, has_install_api=st.booleans(),
    uses_sdcard=st.booleans(), sets_world_readable=st.booleans(),
    unresolved_setter=st.booleans(),
    redirect_targets=st.lists(_TEXT, max_size=4).map(tuple),
    instructions=_INTS, unparsed_lines=_INTS, detectors=_DETECTORS,
    scanned_redirects=st.booleans(), write_external=st.booleans(),
    instances=_INTS)


def _stored(records):
    """``{key: stored payload bytes}`` for ``records`` stored by a cache."""
    with tempfile.TemporaryDirectory() as root:
        cache = AnalysisCache(root)
        keys = [hashlib.sha256(str(number).encode()).hexdigest()
                for number in range(len(records))]
        for key, record in zip(keys, records):
            cache.store(key, record)
        cache.flush()
        cache.close()
        return keys, _raw_payloads(pathlib.Path(root))


@settings(max_examples=150, deadline=None)
@given(st.lists(_RECORDS, min_size=1, max_size=4))
def test_store_writes_the_json_dumps_bytes(records):
    keys, payloads = _stored(records)
    assert payloads == {key: _reference_payload(key, record)
                        for key, record in zip(keys, records)}


def test_store_matches_json_for_every_detector_set():
    names = sorted(DETECTOR_VERSIONS) + ["unknown"]
    base = dataclasses.replace(
        analyze_app(PlayCorpusPlan(seed=3,
                                   spec=scaled_play_spec(2)).app_at(0),
                    InstallerClassifier()),
        instructions=1, unparsed_lines=0, instances=1)
    records = [dataclasses.replace(base, detectors=detectors,
                                   scanned_redirects=scanned)
               for size in range(len(names) + 1)
               for detectors in itertools.combinations(names, size)
               for scanned in (False, True)]
    keys, payloads = _stored(records)
    assert payloads == {key: _reference_payload(key, record)
                        for key, record in zip(keys, records)}
    assert b'"instances":1,"instructions":1,' in payloads[keys[0]]


def test_load_after_store_round_trips(tmp_path):
    cache = AnalysisCache(str(tmp_path))
    plan = PlayCorpusPlan(seed=3, spec=scaled_play_spec(60))
    classifier = InstallerClassifier()
    records = {}
    for index in range(60):
        app = plan.app_at(index)
        records[cache.key_for(app)] = analyze_app(app, classifier)
    for key, record in records.items():
        cache.store(key, record)
        assert cache.load(key) == record  # from the write buffer
    cache.flush()
    fresh = AnalysisCache(str(tmp_path))
    for key, record in records.items():
        loaded = fresh.load(key)
        assert loaded == record  # from the mapped segment
        assert type(loaded.redirect_targets) is tuple
        assert type(loaded.detectors) is tuple
    assert any(record.redirect_targets for record in records.values())
    fresh.close()


def test_malformed_record_reads_as_miss(tmp_path):
    plan = PlayCorpusPlan(seed=3, spec=scaled_play_spec(2))
    app = plan.app_at(0)
    key = AnalysisCache.key_for(app)
    record = dataclasses.asdict(analyze_app(app, InstallerClassifier()))
    missing = dict(record)
    del missing["instances"]
    variants = (record, missing, dict(record, detectors=5),
                dict(record, redirect_targets=None))
    for number, variant in enumerate(variants):
        root = str(tmp_path / str(number))
        store = PackStore(root)
        store.put(key, canonical({"schema": CACHE_SCHEMA, "key": key,
                                  "versions": {}, "record": variant}))
        store.flush()
        loaded = AnalysisCache(root).load(key)
        assert (loaded is not None) == (variant is record)


# -- releasing segments ---------------------------------------------------------


def _mapped_paths():
    with open("/proc/self/maps") as handle:
        return handle.read()


def test_close_unmaps_segments(tmp_path):
    keys = populate(tmp_path, apps=5)
    cache = AnalysisCache(str(tmp_path))
    assert cache.load(keys[0]) is not None
    (path,) = _segment_paths(tmp_path)
    assert path in _mapped_paths()
    cache.close()
    assert path not in _mapped_paths()
    # A closed cache still answers: the next read maps the file again.
    assert cache.load(keys[1]) is not None
    cache.close()


def test_warm_sharded_run_leaves_no_unclosed_file(tmp_path):
    spec = AnalysisSpec(corpus="play", apps=120, cache_dir=str(tmp_path))
    run_serial(spec, shards=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        warm = run_serial(spec, shards=4)
        gc.collect()
    assert (warm.cache_hits, warm.cache_misses) == (120, 0)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert str(tmp_path) not in _mapped_paths()


def test_failed_shard_writes_no_segment_and_releases_cache(
        tmp_path, monkeypatch):
    closed = []
    original_close = AnalysisCache.close

    def tracking_close(self):
        closed.append(self.root)
        original_close(self)

    def failing_fold(stats, record, preinstalled):
        if stats.count("apps") == 10:
            raise RuntimeError("injected")
        fold(stats, record, preinstalled)

    fold = pipeline_mod.fold_analysis
    monkeypatch.setattr(AnalysisCache, "close", tracking_close)
    monkeypatch.setattr(pipeline_mod, "fold_analysis", failing_fold)
    spec = AnalysisSpec(corpus="play", apps=40, cache_dir=str(tmp_path))
    (shard,) = spec.shard(1)
    with pytest.raises(RuntimeError, match="injected"):
        shard.execute()
    assert closed == [str(tmp_path)]
    assert _segment_paths(tmp_path) == []


# -- corruption -------------------------------------------------------------------


def _segment_paths(root):
    return sorted(str(root / name) for name in os.listdir(root)
                  if name.endswith(".pack"))


def test_missing_index_is_rebuilt_from_segment(tmp_path):
    keys = populate(tmp_path, apps=15)
    for name in os.listdir(tmp_path):
        if name.endswith(".idx"):
            os.unlink(tmp_path / name)
    fresh = AnalysisCache(str(tmp_path))
    assert fresh.segment_count == 1
    for key in keys:
        assert fresh.load(key) is not None


def test_torn_segment_tail_drops_only_the_tail(tmp_path):
    keys = populate(tmp_path, apps=15)
    (path,) = _segment_paths(tmp_path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) - 40])  # tear the last record
    for name in os.listdir(tmp_path):
        if name.endswith(".idx"):
            os.unlink(tmp_path / name)
    fresh = AnalysisCache(str(tmp_path))
    loaded = sum(1 for key in keys if fresh.load(key) is not None)
    assert loaded == len(keys) - 1


def test_flipped_payload_byte_reads_as_miss(tmp_path):
    keys = populate(tmp_path, apps=5)
    (path,) = _segment_paths(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # corrupt the final payload byte
    open(path, "wb").write(bytes(blob))
    fresh = AnalysisCache(str(tmp_path))
    loaded = sum(1 for key in keys if fresh.load(key) is not None)
    assert loaded == len(keys) - 1


def test_foreign_file_with_pack_suffix_is_ignored(tmp_path):
    populate(tmp_path, apps=5)
    (tmp_path / "seg-feedface00000000.pack").write_bytes(b"not a pack")
    fresh = AnalysisCache(str(tmp_path))
    assert fresh.segment_count == 1


def test_sharded_cold_run_writes_one_segment_per_shard(tmp_path):
    spec = AnalysisSpec(corpus="play", apps=200, cache_dir=str(tmp_path))
    run_serial(spec, shards=4)
    assert len(_segment_paths(tmp_path)) == 4
    warm = run_serial(spec, shards=4)
    assert (warm.cache_hits, warm.cache_misses) == (200, 0)



# -- key maps: index -> content key, written cold -----------------------------------


def _map_names(root):
    return sorted(name for name in os.listdir(root) if name.endswith(".keys"))


def _count_app_at(monkeypatch, edit=None):
    """Count ``PlayCorpusPlan.app_at`` calls; ``edit`` rewrites smali."""
    calls = []
    original = PlayCorpusPlan.app_at

    def app_at(plan, index):
        calls.append(index)
        app = original(plan, index)
        if edit is not None:
            app.smali_text = edit(app.smali_text)
        return app

    monkeypatch.setattr(PlayCorpusPlan, "app_at", app_at)
    return calls


def test_fingerprint_names_kind_spec_seed_and_generator(monkeypatch):
    def fingerprint(corpus="play", apps=300, seed=3):
        return AnalysisSpec(corpus=corpus, apps=apps,
                            seed=seed).plan().fingerprint()

    prints = {fingerprint(), fingerprint(apps=301), fingerprint(seed=4),
              fingerprint(corpus="preinstalled")}
    assert len(prints) == 4
    assert fingerprint() == fingerprint()
    monkeypatch.setattr(corpus_mod, "GENERATOR_VERSION",
                        corpus_mod.GENERATOR_VERSION + 1)
    assert fingerprint() not in prints


def test_cold_shard_writes_its_range_key_map(tmp_path):
    spec = AnalysisSpec(corpus="play", apps=90, seed=5,
                        cache_dir=str(tmp_path))
    run_serial(spec, shards=2)
    plan = spec.plan()
    prefix = f"map-{plan.fingerprint()}-"
    assert _map_names(tmp_path) == [prefix + "0-45.keys",
                                    prefix + "45-90.keys"]
    blob = (tmp_path / (prefix + "45-90.keys")).read_bytes()
    payload, end = durable.read_frame(blob, 0)
    assert end == len(blob)
    assert payload.hex() == "".join(
        AnalysisCache.key_for(plan.app_at(index)) for index in range(45, 90))
    # A warm run of any layout reads them and writes no further map.
    run_serial(spec, shards=3)
    assert len(_map_names(tmp_path)) == 2


def test_warm_run_over_another_partition_builds_only_the_guard_sample(
        tmp_path, monkeypatch):
    spec = AnalysisSpec(corpus="play", apps=700, cache_dir=str(tmp_path))
    cold = run_serial(spec, shards=4)
    calls = _count_app_at(monkeypatch)
    for shards in (7, 1, 3):
        del calls[:]
        warm = run_serial(spec, shards=shards)
        assert (warm.cache_hits, warm.cache_misses) == (700, 0)
        assert warm.stats.identity_tuple() == cold.stats.identity_tuple()
        assert warm.trace_records() == cold.trace_records()
        assert len(calls) == shards * pipeline_mod.KEYMAP_GUARD_SAMPLE
    assert len(_map_names(tmp_path)) == 4


def test_guard_ignores_maps_a_changed_generator_no_longer_matches(
        tmp_path, monkeypatch):
    spec = AnalysisSpec(corpus="play", apps=300, cache_dir=str(tmp_path))
    run_serial(spec, shards=2)
    fingerprint = spec.plan().fingerprint()
    # Every app gains one instruction; the fingerprint stays the same.
    _count_app_at(monkeypatch,
                  edit=lambda text: text + '\nconst-string v9, "edited"')
    assert spec.plan().fingerprint() == fingerprint
    edited = run_serial(dataclasses.replace(spec, cache_dir=None), shards=1)
    warm = run_serial(spec, shards=3)
    assert (warm.cache_hits, warm.cache_misses) == (0, 300)
    assert warm.stats.identity_tuple() == edited.stats.identity_tuple()
    assert warm.trace_records() == edited.trace_records()
    # The re-keyed shards deleted the stale maps and wrote maps of the
    # new keys: a re-run of the same layout is served from the cache.
    again = run_serial(spec, shards=3)
    assert (again.cache_hits, again.cache_misses) == (300, 0)
    assert again.stats.identity_tuple() == edited.stats.identity_tuple()


def test_stale_maps_are_deleted_by_the_shard_whose_guard_caught_them(
        tmp_path, monkeypatch):
    spec = AnalysisSpec(corpus="play", apps=300, seed=3,
                        cache_dir=str(tmp_path))
    run_serial(spec, shards=2)
    calls = _count_app_at(monkeypatch,
                          edit=lambda text: text + '\nconst-string v9, "x"')
    run_serial(spec, shards=3)
    prefix = f"map-{spec.plan().fingerprint()}-"
    assert _map_names(tmp_path) == [prefix + "0-100.keys",
                                    prefix + "100-200.keys",
                                    prefix + "200-300.keys"]
    # A stale 0-150 or 150-300 map left beside them would outrank the
    # fresh maps of shards 1 and 2 and make them key their ranges anew.
    for _ in range(2):
        del calls[:]
        warm = run_serial(spec, shards=3)
        assert (warm.cache_hits, warm.cache_misses) == (300, 0)
        assert len(calls) <= 3 * pipeline_mod.KEYMAP_GUARD_SAMPLE


def test_torn_key_map_is_a_miss_of_the_map_never_a_hit(
        tmp_path, monkeypatch):
    spec = AnalysisSpec(corpus="play", apps=200, cache_dir=str(tmp_path))
    cold = run_serial(spec, shards=2)
    path = tmp_path / _map_names(tmp_path)[1]
    intact = path.read_bytes()
    path.write_bytes(intact[:-1])
    calls = _count_app_at(monkeypatch)
    warm = run_serial(spec, shards=2)
    assert (warm.cache_hits, warm.cache_misses) == (200, 0)
    assert warm.stats.identity_tuple() == cold.stats.identity_tuple()
    # The first shard's map served it (apps built: the guard sample);
    # the second shard keyed its range itself and rewrote its map.
    first = [index for index in calls if index < 100]
    assert len(first) == pipeline_mod.KEYMAP_GUARD_SAMPLE
    assert calls[len(first):] == list(range(100, 200))
    assert path.read_bytes() == intact
