"""Tests for the Section IV-B findings: Hare permissions and platform keys.

Both findings are built from the images pass's merged stats; the
store half of the platform-key finding joins in the appstore catalogs.
"""

import pytest

from repro.analysis.platform_keys import (
    TEAMVIEWER_PACKAGE,
    generate_appstore_catalogs,
)
from repro.measurement.tables import (
    build_hare,
    build_platform_keys,
    corpus_stats,
)


@pytest.fixture(scope="module")
def images_stats():
    return corpus_stats("images")


@pytest.fixture(scope="module")
def catalogs():
    return generate_appstore_catalogs(seed=2016)


@pytest.fixture(scope="module")
def platform(images_stats, catalogs):
    return build_platform_keys(images_stats, catalogs)


# -- Hare ------------------------------------------------------------------------


def test_sample_images_yield_178_hare_apps(images_stats):
    hare = build_hare(images_stats)
    assert hare.apps == 178
    assert hare.permissions == 178
    assert hare.sample_images == 10


def test_search_finds_27763_vulnerable_cases(images_stats):
    hare = build_hare(images_stats)
    assert hare.cases == 27763
    assert hare.average_per_image == pytest.approx(23.5, abs=0.1)
    assert hare.searched_images == 1181


def test_every_search_image_is_samsung(fleet):
    by_id = {image.image_id: image for image in fleet.images}
    assert all(by_id[i].vendor == "samsung" for i in fleet.search_image_ids)


def test_hare_apps_are_platform_signed(fleet):
    by_id = {image.image_id: image for image in fleet.images}
    hare_packages = set(fleet.hare_app_packages)
    for image_id in fleet.sample_image_ids:
        for app in by_id[image_id].apps:
            if app.package in hare_packages:
                assert app.platform_signed


# -- platform keys ------------------------------------------------------------------


def test_one_platform_key_per_vendor(platform):
    assert platform.keys == {"samsung": 1, "xiaomi": 1, "huawei": 1}


def test_platform_package_counts(platform):
    assert platform.distinct_signed == {
        "samsung": 884, "huawei": 301, "xiaomi": 216,
    }


def test_avg_platform_signed_per_image(platform):
    average = platform.avg_signed_per_image
    assert average["samsung"] == pytest.approx(142, abs=4)
    assert average["huawei"] == pytest.approx(68, abs=2)
    assert average["xiaomi"] == pytest.approx(84, abs=2)


def test_appstore_corpus_size(catalogs):
    assert len(catalogs) == 33
    assert sum(catalog.size for catalog in catalogs) == 1_200_000
    assert catalogs[0].name == "google-play"
    assert catalogs[0].size == 400_000


def test_store_signed_counts_match_paper(platform):
    assert platform.signed_in_stores == {
        "samsung": 61, "huawei": 125, "xiaomi": 30}


def test_teamviewer_among_platform_signed(platform):
    vulnerable = platform.vulnerable_store_apps
    assert len(vulnerable) == 1
    assert vulnerable[0].package == TEAMVIEWER_PACKAGE
    assert vulnerable[0].vendor == "samsung"


def test_platform_signed_store_apps_have_expected_categories(catalogs):
    categories = {
        entry.category
        for catalog in catalogs
        for entry in catalog.platform_entries
    }
    assert categories <= {"MDM", "remote-support", "VPN", "backup"}


def test_catalogs_deterministic():
    first = generate_appstore_catalogs(seed=4)
    second = generate_appstore_catalogs(seed=4)
    assert (first[3].signers == second[3].signers).all()
