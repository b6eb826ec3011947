"""Tests for installer profiles: the paper's per-store fingerprints."""

import pytest

from repro.installers import (
    AmazonInstaller,
    BaiduInstaller,
    DTIgniteInstaller,
    GooglePlayInstaller,
    NaiveSdcardInstaller,
    NewAmazonInstaller,
    QihooInstaller,
    SecureInternalInstaller,
    XiaomiInstaller,
    all_installer_types,
    installer_by_name,
)
from repro.errors import ReproError


def test_verify_read_fingerprints_match_paper():
    """Section III-B: 7 for Amazon, 1 for Xiaomi, 2 for Baidu, 3 for Qihoo."""
    assert AmazonInstaller.profile.verify_reads == 7
    assert XiaomiInstaller.profile.verify_reads == 1
    assert BaiduInstaller.profile.verify_reads == 2
    assert QihooInstaller.profile.verify_reads == 3


def test_amazon_randomizes_names():
    assert AmazonInstaller.profile.randomize_names


def test_xiaomi_renames_on_complete():
    assert XiaomiInstaller.profile.rename_on_complete


def test_dtignite_uses_download_manager_to_its_directory():
    assert DTIgniteInstaller.profile.uses_download_manager
    assert DTIgniteInstaller.profile.download_dir == "/sdcard/DTIgnite"


def test_google_play_is_internal_and_world_readable():
    profile = GooglePlayInstaller.profile
    assert not profile.uses_sdcard
    assert profile.world_readable_staging


def test_new_amazon_adds_pms_verification_and_drm():
    assert NewAmazonInstaller.profile.uses_pms_verification
    assert NewAmazonInstaller.profile.drm_self_check
    assert not AmazonInstaller.profile.uses_pms_verification


def test_naive_installer_has_no_checks_and_uses_pia():
    profile = NaiveSdcardInstaller.profile
    assert not profile.verify_hash
    assert not profile.silent


def test_secure_installer_follows_suggestions():
    profile = SecureInternalInstaller.profile
    assert not profile.uses_sdcard
    assert profile.verify_hash
    assert profile.world_readable_staging


def test_all_sdcard_stores_verify_hashes():
    """Leading installers all perform integrity checks (Section V-B)."""
    for cls in (AmazonInstaller, XiaomiInstaller, BaiduInstaller,
                QihooInstaller, DTIgniteInstaller):
        assert cls.profile.verify_hash


def test_registry_lookup():
    assert installer_by_name("amazon") is AmazonInstaller
    assert installer_by_name("dtignite") is DTIgniteInstaller
    with pytest.raises(ReproError):
        installer_by_name("nonexistent")


def test_registry_is_complete():
    assert len(all_installer_types()) == 12


def test_sdcard_installer_names():
    names = {name for name, cls in all_installer_types().items()
             if cls.profile.uses_sdcard}
    assert "amazon" in names
    assert "google-play" not in names


def test_staging_dir_resolution():
    assert AmazonInstaller.profile.staging_dir("/data/data/x") == (
        "/sdcard/amazon-appstore"
    )
    assert GooglePlayInstaller.profile.staging_dir("/data/data/x") == (
        "/data/data/x/staging"
    )
