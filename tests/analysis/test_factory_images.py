"""Tests for the factory-image fleet generator."""

import pytest

from repro.analysis.factory_images import (
    ALL_SPECS,
    AMAZON_PKG,
    DTIGNITE_PKG,
    DTIGNITE_CARRIERS,
    HUAWEI_STORE_PKG,
    SPRINTZONE_PKG,
    TOTAL_DISTINCT_APPS,
    XIAOMI_STORE_PKG,
    generate_fleet,
)


def test_image_and_model_counts_match_paper(vendor_images):
    assert len(vendor_images["samsung"]) == 1239
    assert len({i.model for i in vendor_images["samsung"]}) == 849
    assert len(vendor_images["xiaomi"]) == 382
    assert len({i.model for i in vendor_images["xiaomi"]}) == 149
    assert len(vendor_images["huawei"]) == 234
    assert len({i.model for i in vendor_images["huawei"]}) == 135


def test_distinct_records_exactly_206674(fleet):
    records = {app.record_id for image in fleet.images for app in image.apps}
    assert len(records) == TOTAL_DISTINCT_APPS


def test_region_codes_and_countries(fleet):
    assert len({image.region_code for image in fleet.images}) == 231
    assert len({image.country for image in fleet.images}) == 79


def test_platform_package_pools_match_paper(vendor_images):
    for vendor, expected in (("samsung", 884), ("huawei", 301),
                             ("xiaomi", 216)):
        packages = {app.package for image in vendor_images[vendor]
                    for app in image.apps if app.platform_signed}
        assert len(packages) == expected


def test_platform_signed_per_image_near_paper(vendor_images):
    expectations = {"samsung": 142, "huawei": 68, "xiaomi": 84}
    for vendor, expected in expectations.items():
        images = vendor_images[vendor]
        average = sum(
            sum(1 for app in image.apps if app.platform_signed)
            for image in images
        ) / len(images)
        assert abs(average - expected) < 4


def test_install_packages_ratio_near_10_percent(vendor_images):
    targets = {"samsung": 0.0845, "huawei": 0.1032, "xiaomi": 0.1187}
    for vendor, target in targets.items():
        images = vendor_images[vendor]
        apps = sum(len(image.apps) for image in images)
        privileged = sum(len(image.install_packages_apps()) for image in images)
        assert privileged / apps == pytest.approx(target, abs=0.005)


def test_privilege_count_doubles_over_period(vendor_images):
    for spec in ALL_SPECS:
        images = vendor_images[spec.vendor]
        oldest = [i for i in images if i.year_index == 0 and not i.flagship]
        newest = [i for i in images if i.year_index == 3 and not i.flagship]
        avg_old = sum(len(i.install_packages_apps()) for i in oldest) / len(oldest)
        avg_new = sum(len(i.install_packages_apps()) for i in newest) / len(newest)
        assert avg_new >= 1.8 * avg_old


def test_flagships_carry_25_to_31_privileged_apps(fleet):
    flagships = [image for image in fleet.images if image.flagship]
    assert flagships
    for image in flagships:
        count = len(image.install_packages_apps())
        assert 25 <= count <= 31


def test_carrier_installer_placement(fleet):
    images_with = {
        package: [image for image in fleet.images
                  if image.has_package(package)]
        for package in (AMAZON_PKG, DTIGNITE_PKG, XIAOMI_STORE_PKG,
                        HUAWEI_STORE_PKG, SPRINTZONE_PKG)}
    amazon_images = images_with[AMAZON_PKG]
    assert amazon_images
    assert all(image.carrier in ("verizon", "uscellular")
               for image in amazon_images)
    assert all(image.vendor == "samsung" for image in amazon_images)
    dtignite_images = images_with[DTIGNITE_PKG]
    assert len({image.carrier for image in dtignite_images}) >= 8
    assert all(image.carrier in DTIGNITE_CARRIERS for image in dtignite_images)
    assert all(image.vendor == "xiaomi"
               for image in images_with[XIAOMI_STORE_PKG])
    assert len(images_with[XIAOMI_STORE_PKG]) == 382
    assert len(images_with[HUAWEI_STORE_PKG]) == 234
    assert all(image.carrier == "sprint"
               for image in images_with[SPRINTZONE_PKG])


def test_carrier_installers_hold_install_packages(fleet):
    dtignite_images = [image for image in fleet.images
                       if image.has_package(DTIGNITE_PKG)]
    for image in dtignite_images[:10]:
        privileged = {app.package for app in image.install_packages_apps()}
        assert DTIGNITE_PKG in privileged


def test_per_image_app_counts(vendor_images):
    for spec in ALL_SPECS:
        for image in vendor_images[spec.vendor][:20]:
            assert len(image.apps) == spec.apps_per_image


def test_fleet_is_deterministic():
    first = generate_fleet(seed=3)
    second = generate_fleet(seed=3)
    assert ({app.record_id for image in first.images for app in image.apps}
            == {app.record_id for image in second.images
                for app in image.apps})
    assert [i.carrier for i in first.images[:50]] == [
        i.carrier for i in second.images[:50]
    ]


# -- the index-addressable plan (scaled fleets) -----------------------------------


def test_plan_at_paper_scale_matches_generate_fleet(fleet):
    from repro.analysis.factory_images import FactoryImagePlan

    plan = FactoryImagePlan(seed=2016)
    assert plan.size == 1855
    for index in (0, 700, 1238, 1239, 1620, 1621, 1854):
        image = plan.image_at(index)
        reference = fleet.images[index]
        assert (image.vendor, image.model, image.carrier,
                image.region_code, image.year_index, image.flagship) == (
            reference.vendor, reference.model, reference.carrier,
            reference.region_code, reference.year_index, reference.flagship)
        assert ([app.record_id for app in image.apps]
                == [app.record_id for app in reference.apps])
    planned = plan.fleet()
    assert planned.sample_image_ids == fleet.sample_image_ids
    assert planned.search_image_ids == fleet.search_image_ids
    assert ({app.record_id for image in planned.images for app in image.apps}
            == {app.record_id for image in fleet.images
                for app in image.apps})


def test_scaled_image_specs_preserve_vendor_mix():
    from repro.analysis.factory_images import paper_image_total, scaled_image_specs
    from repro.errors import CorpusError

    assert scaled_image_specs(paper_image_total()) is ALL_SPECS
    for total in (50, 200, 1855, 4000, 10000):
        scaled = scaled_image_specs(total)
        assert sum(spec.image_count for spec in scaled) == total
        for spec, base in zip(scaled, ALL_SPECS):
            assert spec.vendor == base.vendor
            assert spec.model_count == base.model_count
            assert spec.apps_per_image == base.apps_per_image
            assert spec.platform_package_pool == base.platform_package_pool
    # The three vendors keep (roughly) the paper's 67/21/13 percent mix.
    scaled = scaled_image_specs(1000)
    assert [spec.image_count for spec in scaled] == [668, 206, 126]
    with pytest.raises(CorpusError):
        scaled_image_specs(49)


def test_scaled_fleet_keeps_traits_and_hare_density():
    from repro.analysis.factory_images import (
        HARE_APP_COUNT,
        HARE_SAMPLE_IMAGES,
        scaled_image_specs,
    )

    scaled = generate_fleet(seed=2016, specs=scaled_image_specs(300))
    assert len(scaled.images) == 300
    samsung = [image for image in scaled.images if image.vendor == "samsung"]
    assert len(scaled.search_image_ids) == len(samsung) - HARE_SAMPLE_IMAGES
    assert len(scaled.hare_permissions) == HARE_APP_COUNT
    for image in scaled.images:
        spec = next(s for s in ALL_SPECS if s.vendor == image.vendor)
        assert len(image.apps) == spec.apps_per_image
    # Hare density stays at the paper's ~23.5 cases per searched image.
    search = {image.image_id: image for image in samsung}
    cases = 0
    for image_id in scaled.search_image_ids:
        defined = search[image_id].defined_permissions()
        cases += sum(1 for permission in scaled.hare_permissions
                     if permission not in defined)
    assert cases / len(scaled.search_image_ids) == pytest.approx(23.5, abs=0.6)
