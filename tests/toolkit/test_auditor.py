"""Tests for the installer-design auditor."""

from repro.installers import (
    AmazonInstaller,
    BaiduInstaller,
    DTIgniteInstaller,
    GooglePlayInstaller,
    NaiveSdcardInstaller,
    NewAmazonInstaller,
    QihooInstaller,
    XiaomiInstaller,
)
from repro.toolkit.auditor import Severity, audit_profile
from repro.toolkit.secure_installer import ToolkitInstaller


def severities(profile):
    return [finding.severity for finding in audit_profile(profile)]


def test_all_sdcard_stores_flagged_critical():
    for cls in (AmazonInstaller, XiaomiInstaller, BaiduInstaller,
                QihooInstaller, DTIgniteInstaller):
        assert Severity.CRITICAL in severities(cls.profile), cls.__name__


def test_naive_installer_flagged_for_missing_check():
    findings = audit_profile(NaiveSdcardInstaller.profile)
    assert any("without any integrity check" in finding.title
               for finding in findings)


def test_new_amazon_flagged_for_manifest_only_verification():
    findings = audit_profile(NewAmazonInstaller.profile)
    assert any("installPackageWithVerification" in finding.title
               for finding in findings)


def test_amazon_randomization_marked_cosmetic():
    findings = audit_profile(AmazonInstaller.profile)
    assert any("randomization" in finding.title for finding in findings)


def test_google_play_is_clean():
    assert Severity.CRITICAL not in severities(GooglePlayInstaller.profile)


def test_toolkit_installer_is_fully_clean():
    assert audit_profile(ToolkitInstaller.profile) == []


def test_findings_sorted_critical_first():
    findings = audit_profile(AmazonInstaller.profile)
    ranks = [finding.severity for finding in findings]
    order = {Severity.CRITICAL: 0, Severity.WARNING: 1, Severity.INFO: 2}
    assert [order[r] for r in ranks] == sorted(order[r] for r in ranks)


def test_finding_str_names_suggestion():
    finding = audit_profile(AmazonInstaller.profile)[0]
    assert str(finding).startswith("[CRITICAL] S")


def test_internal_without_world_readable_warned():
    from dataclasses import replace
    broken = replace(GooglePlayInstaller.profile, world_readable_staging=False)
    findings = audit_profile(broken)
    assert any("world-readable" in finding.title for finding in findings)
