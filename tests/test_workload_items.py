"""Pins of item ``i`` of every workload kind, by index.

Each workload kind builds item ``i`` in one method: an install campaign
in :meth:`CampaignSpec.install_at`, the app corpora in ``app_at`` and
the factory-image fleet in ``image_at``.  These digests hold every
field of a few items of each kind, so a generator change fails here
even where the merged stats and tables happen to stay equal.  The
expected values were computed before ``install_at`` replaced the
per-field install helpers, so they also pin that the rebuilt installs
are the old ones.
"""

import hashlib
import json

import pytest

from repro.analysis.corpus import GENERATOR_VERSION
from repro.analysis.pipeline import AnalysisSpec
from repro.engine.spec import CampaignSpec

POOL = ("android.permission.CAMERA", "android.permission.READ_CONTACTS",
        "android.permission.RECORD_AUDIO", "android.permission.SEND_SMS",
        "android.permission.ACCESS_FINE_LOCATION")


def digest(records):
    """sha256 of the records' canonical JSON."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def install_records(spec, indices):
    return [list(spec.install_at(index)) for index in indices]


def app_records(plan, indices):
    records = []
    for index in indices:
        app = plan.app_at(index)
        records.append({
            "package": app.package,
            "category": app.category,
            "truth": app.truth.value,
            "declared_permissions": sorted(app.declared_permissions),
            "smali_text": app.smali_text,
            "redirect_urls": list(app.redirect_urls),
            "is_preinstalled": app.is_preinstalled,
            "vendor": app.vendor,
            "instances": app.instances,
        })
    return records


def image_records(plan, indices):
    records = []
    for index in indices:
        image = plan.image_at(index)
        records.append({
            "image_id": image.image_id,
            "vendor": image.vendor,
            "model": image.model,
            "carrier": image.carrier,
            "apps": [app.package for app in image.apps],
        })
    return records


def test_installs_with_a_permission_pool():
    spec = CampaignSpec(installs=5000, seed=11, permission_pool=POOL,
                        max_extra_permissions=3)
    indices = (0, 1, 2, 3, 499, 4999, 123456)
    assert spec.install_at(3) == (
        "com.fleet.app000003", "Fleet App 3", 5300,
        ("android.permission.CAMERA", "android.permission.SEND_SMS"))
    assert digest(install_records(spec, indices)) == (
        "6221df87c29ba1169265eb6be89872314c185e5ce4824f86d14718020fb6d896")


def test_installs_without_a_permission_pool():
    spec = CampaignSpec(installs=10, seed=7)
    assert digest(install_records(spec, (0, 9))) == (
        "3a8e2eea56f174df3a3f4ea110f7d8a67a4d81f11519ebadcdf6b7b4afe12b7a")


#: The corpus generator version the app digests below were taken at.
#: An edit that moves one of them bumps ``GENERATOR_VERSION`` and this
#: line: the analysis cache trusts its index -> key maps by a plan
#: fingerprint that includes the version.
APP_DIGESTS_AT_VERSION = 1


@pytest.mark.parametrize("corpus, apps, seed, indices, expected", [
    ("play", None, 2016, (0, 1, 2, 777, 6374, 12749),
     "139c954bd76f305442901e031531944343dfd9f87c6498d63e6b8f702e9461ed"),
    ("play", 6000, 3, (0, 3001, 5999),
     "55052cce528bd14e758e93d86c8b0eb90f022e0d6b130e8570c3eb6b31d68d9b"),
    ("preinstalled", None, 2016, (0, 1, 2, 800, 1612),
     "265dfc5287663168d193bfd309f8b9d873b8895125a7f0c13488fccc121b260b"),
    ("preinstalled", 3000, 2, (0, 1500, 2999),
     "59e6dbebde50b3bbf7b595e8bb050adce5ae291f859c2f39dbc699e196150f25"),
], ids=["play", "play-6000", "preinstalled", "preinstalled-3000"])
def test_apps(corpus, apps, seed, indices, expected):
    assert GENERATOR_VERSION == APP_DIGESTS_AT_VERSION
    plan = AnalysisSpec(corpus=corpus, apps=apps, seed=seed).plan()
    assert digest(app_records(plan, indices)) == expected


@pytest.mark.parametrize("apps, indices, expected", [
    (60, (0, 10, 40, 59),
     "3c78bf6f39b2597aadf403375a26c96930993c73e1b7d26d8df79cdf9b649f7b"),
    (None, (0, 1238, 1620, 1854),
     "0af16e4a54c422991d11ea7299030e6c323eef550f9f5af32a5d343fd12b4323"),
], ids=["images-60", "images"])
def test_images(apps, indices, expected):
    plan = AnalysisSpec(corpus="images", apps=apps, seed=2016).plan()
    assert digest(image_records(plan, indices)) == expected
