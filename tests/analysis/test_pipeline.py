"""Tests for the sharded measurement pipeline (repro.analysis.pipeline).

The load-bearing contract: for ANY shard/worker split, the merged
stats, the rendered tables, and the exported trace records are
identical to a serial run — and the serial run reproduces the paper's
Table II–V figures.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis import classifier as classifier_mod
from repro.analysis.cache import PackStore
from repro.analysis.factory_images import (
    AMAZON_PKG,
    DTIGNITE_PKG,
    HUAWEI_STORE_PKG,
    SPRINTZONE_PKG,
    XIAOMI_STORE_PKG,
)
from repro.analysis.pipeline import (
    CACHE_SCHEMA,
    AnalysisCache,
    AppAnalysis,
    AnalysisSpec,
    AnalysisStats,
    analyze_app,
    merge_analysis_stats,
    run_analysis,
    table2_counts,
    table3_counts,
    table4_counts,
    table5_counts,
    table6_counts,
)
from repro.engine import multiprocessing_usable
from repro.errors import ReproError
from repro.measurement.tables import build_hare, build_platform_keys


needs_multiprocessing = pytest.mark.skipif(
    not multiprocessing_usable(),
    reason="multiprocessing unavailable in this environment")


def run_serial(spec, shards=1):
    return run_analysis(spec, shards=shards, backend="serial")


# -- mergeable tallies ------------------------------------------------------------


def test_stats_merge_is_associative_with_identity():
    a = AnalysisStats(counters={"apps": 1, "x": 2}, sets={"s": {"p"}})
    b = AnalysisStats(counters={"apps": 3}, sets={"s": {"q"}, "t": {"r"}})
    c = AnalysisStats(counters={"x": 5})
    left = merge_analysis_stats([merge_analysis_stats([a, b]), c])
    right = merge_analysis_stats([a, merge_analysis_stats([b, c])])
    assert left.identity_tuple() == right.identity_tuple()
    with_identity = merge_analysis_stats([AnalysisStats(), a])
    assert with_identity.identity_tuple() == a.identity_tuple()


# -- golden sharded-vs-serial equality on both paper corpora ----------------------


@pytest.fixture(scope="module")
def play_report():
    return run_serial(AnalysisSpec(corpus="play"), shards=4)


@pytest.fixture(scope="module")
def preinstalled_report():
    return run_serial(AnalysisSpec(corpus="preinstalled"), shards=4)


def test_play_pipeline_matches_measurement_tables(play_report):
    counts = table2_counts(play_report.stats)
    assert counts["total"] == 12750
    assert counts["installers"] == 1493
    assert counts["vulnerable"] == 779
    assert counts["secure"] == 152
    assert counts["unknown"] == 562
    assert counts["write_external"] == 8721
    assert table4_counts(play_report.stats) == {
        1: 723, 2: 1405, 4: 2090, 8: 2337}
    assert play_report.stats.count("redirect/apps_with_any") == 10799


def test_preinstalled_pipeline_matches_measurement_tables(preinstalled_report):
    counts = table3_counts(preinstalled_report.stats)
    assert counts["total"] == 1613
    assert counts["installers"] == 238
    assert counts["vulnerable"] == 102
    assert counts["secure"] == 3
    assert counts["unknown"] == 133
    assert counts["instances"] == 12050
    assert counts["write_external_instances"] == 5864


@pytest.mark.parametrize("corpus", ["play", "preinstalled"])
@pytest.mark.parametrize("shards", [1, 3, 8])
def test_sharded_equals_serial_on_paper_corpora(corpus, shards, play_report,
                                                preinstalled_report):
    golden = play_report if corpus == "play" else preinstalled_report
    report = run_serial(AnalysisSpec(corpus=corpus), shards=shards)
    assert report.stats.identity_tuple() == golden.stats.identity_tuple()
    assert report.render() == golden.render()


def test_process_backend_equals_serial():
    spec = AnalysisSpec(corpus="play", apps=2000)
    serial = run_serial(spec, shards=1)
    pooled = run_analysis(spec, shards=5, workers=2, backend="process")
    assert pooled.stats.identity_tuple() == serial.stats.identity_tuple()
    assert pooled.render() == serial.render()


@needs_multiprocessing
def test_crashing_worker_retries_to_serial_stats_and_counts_cache_once(
        tmp_path):
    spec = AnalysisSpec(corpus="play", apps=400, chaos="crash:1",
                        cache_dir=str(tmp_path))
    clean = run_serial(AnalysisSpec(corpus="play", apps=400), shards=1)
    crashed = run_analysis(spec, shards=4, workers=2, backend="process")
    assert crashed.stats.identity_tuple() == clean.stats.identity_tuple()
    assert crashed.counters["crashes"] >= 1
    # Hits and misses come from the one attempt that finished, never
    # from the crashed attempts of the same shard.
    assert crashed.cache_hits + crashed.cache_misses == 400
    warm = run_analysis(dataclasses.replace(spec, chaos=None), shards=4,
                        workers=2, backend="process")
    assert (warm.cache_hits, warm.cache_misses) == (400, 0)


# -- trace byte-identity across splits --------------------------------------------


def test_trace_records_identical_for_any_split():
    spec = AnalysisSpec(corpus="play", apps=600, observe=True)
    baseline = run_serial(spec, shards=1).trace_records()
    assert baseline, "observe=True must record spans"
    for shards in (2, 5, 9):
        records = run_serial(spec, shards=shards).trace_records()
        assert records == baseline
    # Byte-identical once serialized, not merely equal as objects.
    as_json = [json.dumps(record, sort_keys=True) for record in baseline]
    again = [json.dumps(record, sort_keys=True)
             for record in run_serial(spec, shards=7).trace_records()]
    assert again == as_json


def test_trace_spans_use_global_app_index_as_time():
    spec = AnalysisSpec(corpus="play", apps=50, observe=True)
    records = run_serial(spec, shards=3).trace_records()
    starts = [record["start_ns"] for record in records]
    assert starts == [index * 1000 for index in range(50)]
    assert all("shard" not in record for record in records)


# -- the images corpus (hare + platform keys + Tables V and VI) -------------------


@pytest.fixture(scope="module")
def images_report():
    return run_serial(AnalysisSpec(corpus="images"), shards=6)


def test_images_pipeline_matches_table5(images_report, fleet):
    expected = {}
    for package in (AMAZON_PKG, DTIGNITE_PKG, XIAOMI_STORE_PKG,
                    HUAWEI_STORE_PKG, SPRINTZONE_PKG):
        images = [image for image in fleet.images
                  if image.has_package(package)]
        expected[package] = (
            len(images),
            len({image.carrier for image in images}),
            len({image.vendor for image in images}),
            len({image.model for image in images}),
        )
    table5 = table5_counts(images_report.stats)
    assert list(table5) == list(expected)
    for package, counts in table5.items():
        assert (counts["images"], counts["carriers"], counts["vendors"],
                counts["models"]) == expected[package]


def test_images_pipeline_matches_table6(images_report, fleet, vendor_images):
    counts = table6_counts(images_report.stats)
    for vendor, totals in counts["vendors"].items():
        images = vendor_images[vendor]
        assert totals == {
            "images": len(images),
            "apps": sum(len(image.apps) for image in images),
            "install_packages": sum(len(image.install_packages_apps())
                                    for image in images),
        }
    for index, totals in counts["years"].items():
        images = [image for image in fleet.images
                  if image.year_index == index]
        assert totals == {
            "images": len(images),
            "install_packages": sum(len(image.install_packages_apps())
                                    for image in images),
        }
    flagship = [len(image.install_packages_apps())
                for image in fleet.images if image.flagship]
    assert counts["flagship_range"] == (min(flagship), max(flagship))
    assert sum(t["images"] for t in counts["vendors"].values()) == 1855
    assert sum(t["images"] for t in counts["years"].values()) == 1855


def test_images_pipeline_matches_hare_study(images_report, fleet):
    by_id = {image.image_id: image for image in fleet.images}
    used = {permission for image_id in fleet.sample_image_ids
            for app in by_id[image_id].apps
            for permission in app.uses_permissions
            if permission not in app.defines_permissions}
    cases = sum(len(used - by_id[image_id].defined_permissions())
                for image_id in fleet.search_image_ids)
    hare = build_hare(images_report.stats)
    assert hare.cases == cases == 27763
    assert hare.permissions == len(used) == 178
    assert hare.searched_images == len(fleet.search_image_ids) == 1181


def test_images_pipeline_matches_platform_key_study(images_report,
                                                   vendor_images):
    platform = build_platform_keys(images_report.stats, catalogs=())
    assert set(platform.keys) == {"samsung", "huawei", "xiaomi"}
    for vendor in platform.keys:
        images = vendor_images[vendor]
        signed = sum(app.platform_signed
                     for image in images for app in image.apps)
        assert platform.avg_signed_per_image[vendor] == signed / len(images)
        assert platform.distinct_signed[vendor] == len(
            {app.package for image in images for app in image.apps
             if app.platform_signed})
        assert platform.keys[vendor] == 1


def test_images_sharding_is_split_invariant(images_report):
    other = run_serial(AnalysisSpec(corpus="images"), shards=13)
    assert other.stats.identity_tuple() == images_report.stats.identity_tuple()


def test_scaled_images_corpus_shards_by_global_index():
    spec = AnalysisSpec(corpus="images", apps=150)
    serial = run_serial(spec, shards=1)
    assert serial.stats.count("images") == 150
    for shards in (4, 7):
        assert (run_serial(spec, shards=shards).stats.identity_tuple()
                == serial.stats.identity_tuple())


# -- the content-addressed cache --------------------------------------------------


def test_warm_cache_reanalyzes_nothing(tmp_path):
    spec = AnalysisSpec(corpus="play", apps=300, cache_dir=str(tmp_path))
    cold = run_serial(spec, shards=2)
    assert (cold.cache_hits, cold.cache_misses) == (0, 300)
    warm = run_serial(spec, shards=5)  # different split, same cache
    assert (warm.cache_hits, warm.cache_misses) == (300, 0)
    assert warm.stats.identity_tuple() == cold.stats.identity_tuple()
    assert warm.trace_records() == cold.trace_records()


def test_detector_version_bump_invalidates_only_consulted_apps(
        tmp_path, monkeypatch):
    spec = AnalysisSpec(corpus="play", apps=400, cache_dir=str(tmp_path))
    cold = run_serial(spec, shards=2)
    # Count apps whose verdict consulted the chmod detector: only
    # installers reach setter analysis, and of those only the ones whose
    # code invokes Runtime.exec.
    plan = spec.plan()
    classifier = classifier_mod.InstallerClassifier()
    consulted = sum(
        1 for index in range(400)
        if "chmod" in analyze_app(plan.app_at(index), classifier).detectors)
    assert 0 < consulted < 400
    monkeypatch.setitem(classifier_mod.DETECTOR_VERSIONS, "chmod", 2)
    warm = run_serial(spec, shards=2)
    assert warm.cache_misses == consulted
    assert warm.cache_hits == 400 - consulted
    assert warm.stats.identity_tuple() == cold.stats.identity_tuple()


def test_cache_rejects_torn_or_foreign_entries(tmp_path):
    key = "ab" + "0" * 62
    store = PackStore(str(tmp_path / "foreign"))
    record = {field.name: 0 for field in dataclasses.fields(AppAnalysis)}
    record.update(redirect_targets=[], detectors=[])
    store.put(key, json.dumps([999, key, {}, *record.values()],
                              separators=(",", ":")).encode())
    store.flush()
    assert AnalysisCache(str(tmp_path / "foreign")).load(key) is None
    store = PackStore(str(tmp_path / "torn"))
    store.put(key, json.dumps([CACHE_SCHEMA, key, {}, *record.values()],
                              separators=(",", ":")).encode())
    path = store.flush()
    assert AnalysisCache(str(tmp_path / "torn")).load(key) is not None
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 1)
    assert AnalysisCache(str(tmp_path / "torn")).load(key) is None


# -- spec validation --------------------------------------------------------------


def test_spec_rejects_unknown_corpus_and_bad_sizes():
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="walled-garden")
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="play", apps=0)
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="images", apps=10)  # below the 50-image floor
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="play").shard(0)


def test_scaled_specs_shard_to_exact_totals():
    spec = AnalysisSpec(corpus="play", apps=4097)
    shards = spec.shard(7)
    assert shards[0].start == 0 and shards[-1].stop == 4097
    assert [s.stop - s.start for s in shards] == [586, 586, 585, 585,
                                                  585, 585, 585]
    report = run_serial(spec, shards=7)
    assert report.stats.count("apps") == 4097
