"""Section IV-B platform-key findings: one key per vendor, platform-signed
apps per image / in total / in appstores."""

import pytest

from repro.analysis.platform_keys import generate_appstore_catalogs
from repro.measurement.report import render_platform_keys
from repro.measurement.tables import build_platform_keys, corpus_stats

PAPER = {
    "avg_per_image": {"samsung": 142, "huawei": 68, "xiaomi": 84},
    "distinct": {"samsung": 884, "huawei": 301, "xiaomi": 216},
    "in_stores": {"samsung": 61, "huawei": 125, "xiaomi": 30},
}


def test_platform_keys(benchmark, report_sink):
    keys = benchmark.pedantic(
        lambda: build_platform_keys(corpus_stats("images"),
                                    generate_appstore_catalogs(seed=2016)),
        rounds=1, iterations=1,
    )
    report_sink("platform_keys", render_platform_keys(keys))

    assert keys.keys == {"samsung": 1, "huawei": 1, "xiaomi": 1}
    assert keys.distinct_signed == PAPER["distinct"]
    assert keys.signed_in_stores == PAPER["in_stores"]
    for vendor, expected in PAPER["avg_per_image"].items():
        assert keys.avg_signed_per_image[vendor] == pytest.approx(expected,
                                                                  abs=4)
    assert keys.vulnerable_store_apps  # TeamViewer is out there
