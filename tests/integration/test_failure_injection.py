"""Failure-injection tests: flaky networks, corrupted CDNs, dead URLs."""

import pytest

from repro.core.scenario import Scenario
from repro.errors import DownloadError
from repro.installers import AmazonInstaller, DTIgniteInstaller

TARGET = "com.victim.app"


def flaky(content, failures):
    """A CDN entry whose first ``failures`` fetches drop the connection."""
    drops = [DownloadError("connection reset")] * failures

    def provider():
        if drops:
            raise drops.pop()
        return content
    return provider


def test_self_download_retries_through_flaky_network():
    scenario = Scenario.build(installer=AmazonInstaller)
    listing = scenario.publish_app(TARGET)
    genuine_bytes = listing.apk.to_bytes()
    scenario.system.network.host(listing.url, flaky(genuine_bytes, failures=2))
    outcome = scenario.run_install(TARGET)
    assert outcome.clean_install  # max_retries=2 absorbs two drops


def test_self_download_gives_up_after_persistent_failures():
    scenario = Scenario.build(installer=AmazonInstaller)
    listing = scenario.publish_app(TARGET)
    scenario.system.network.host(listing.url,
                                 flaky(listing.apk.to_bytes(), failures=10))
    outcome = scenario.run_install(TARGET)
    assert not outcome.installed
    assert "download" in outcome.error


def test_dm_download_retries_through_flaky_network():
    scenario = Scenario.build(installer=DTIgniteInstaller)
    listing = scenario.publish_app(TARGET)
    scenario.system.network.host(listing.url,
                                 flaky(listing.apk.to_bytes(), failures=1))
    outcome = scenario.run_install(TARGET)
    assert outcome.clean_install


def test_dead_url_fails_cleanly():
    scenario = Scenario.build(installer=DTIgniteInstaller)
    listing = scenario.publish_app(TARGET)
    # The CDN entry vanishes entirely.
    scenario.system.network._content.pop(listing.url)
    outcome = scenario.run_install(TARGET)
    assert not outcome.installed
    assert outcome.error is not None


def test_cdn_serving_truncated_apk_is_caught():
    scenario = Scenario.build(installer=AmazonInstaller)
    listing = scenario.publish_app(TARGET)
    truncated = listing.apk.to_bytes()[:-20]
    scenario.system.network.host(listing.url, truncated)
    outcome = scenario.run_install(TARGET)
    # The hash check rejects it every retry; nothing gets installed.
    assert not outcome.installed
    assert not scenario.system.pms.is_installed(TARGET)


def test_cdn_serving_wrong_apk_is_caught():
    scenario = Scenario.build(installer=AmazonInstaller)
    listing = scenario.publish_app(TARGET)
    other = scenario.publish_app("com.other.app")
    scenario.system.network.host(listing.url, other.apk.to_bytes())
    outcome = scenario.run_install(TARGET)
    assert not outcome.installed


def test_flaky_network_then_attack_still_hijacks():
    """Resilience does not accidentally defend: a retried download is
    just another window for the attacker."""
    from repro.attacks.base import fingerprint_for
    from repro.attacks.toctou import FileObserverHijacker
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
    )
    listing = scenario.publish_app(TARGET)
    scenario.system.network.host(listing.url,
                                 flaky(listing.apk.to_bytes(), failures=1))
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked
