"""Pack-format cache: segments, indexes, format pins, corruption."""

import dataclasses
import gc
import hashlib
import json
import os
import struct
import warnings

import pytest

from repro.analysis import pipeline as pipeline_mod
from repro.analysis.cache import PackStore
from repro.analysis.corpus import (
    corpus_plan,
    scaled_play_spec,
    scaled_preinstalled_spec,
)
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


def run_serial(spec, shards):
    return run_analysis(spec, shards=shards, backend="serial")


def populate(root, apps=40, seed=7):
    """Analyze ``apps`` Play apps into a cache at ``root``; the keys."""
    cache = AnalysisCache(str(root))
    plan = corpus_plan("play", seed=seed, spec=scaled_play_spec(apps))
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


def test_iter_entries_covers_pack_legacy_and_buffer(tmp_path):
    keys = populate(tmp_path, apps=10)
    cache = AnalysisCache(str(tmp_path))
    seen = {key for key, _versions, _record in cache.iter_entries()}
    assert seen == set(keys)
    # Unflushed writes are part of the view too.
    record = cache.load(keys[0])
    cache.store("ee" * 32, record)
    seen = {key for key, _versions, _record in cache.iter_entries()}
    assert seen == set(keys) | {"ee" * 32}
    # Every entry carries the versions map the loader validates.
    for _key, versions, record in cache.iter_entries():
        assert "redirect" in versions
        assert isinstance(record["package"], str)


def test_flush_is_idempotent_and_content_addressed(tmp_path):
    populate(tmp_path, apps=10, seed=7)
    first = sorted(os.listdir(tmp_path))
    # Re-analyzing the identical content produces the identical segment
    # name, so the re-flush replaces rather than duplicates.
    populate(tmp_path, apps=10, seed=7)
    assert sorted(os.listdir(tmp_path)) == first


def test_put_rotates_past_record_cap(tmp_path):
    store = PackStore(str(tmp_path), rotate_records=4)
    for index in range(10):
        key = f"{index:02x}" * 32
        store.put(key, {"key": key, "value": index})
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
    store.put(key, {"key": key, "value": 1})
    first = store.flush()
    assert store.get(key) == {"key": key, "value": 1}  # maps the segment
    store.put(key, {"key": key, "value": 1})
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
    return json.dumps({"schema": CACHE_SCHEMA, "key": key,
                       "versions": versions,
                       "record": dataclasses.asdict(record)},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")


def test_stored_bytes_match_asdict_encoding(tmp_path):
    classifier = InstallerClassifier()
    for kind, spec in (("play", scaled_play_spec(500)),
                       ("preinstalled", scaled_preinstalled_spec(500))):
        root = tmp_path / kind
        cache = AnalysisCache(str(root))
        plan = corpus_plan(kind, seed=11, spec=spec)
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


def test_load_after_store_round_trips(tmp_path):
    cache = AnalysisCache(str(tmp_path))
    plan = corpus_plan("play", seed=3, spec=scaled_play_spec(60))
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
    plan = corpus_plan("play", seed=3, spec=scaled_play_spec(2))
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
        store.put(key, {"schema": CACHE_SCHEMA, "key": key,
                        "versions": {}, "record": variant})
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
