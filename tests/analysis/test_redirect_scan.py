"""Tests for the hardcoded-redirect scan (Table IV)."""

import pytest

from repro.analysis.classifier import InstallerClassifier
from repro.analysis.corpus import MARKET_SCHEME, PLAY_URL, PlayCorpusPlan
from repro.analysis.pipeline import (
    AnalysisSpec,
    analyze_app,
    run_analysis,
    table4_counts,
)
from repro.analysis.redirect_scan import redirect_targets
from repro.analysis.smali import parse_program


def scan(smali):
    return redirect_targets(parse_program(smali))


def test_scan_finds_play_url():
    targets = scan(
        '.class La;\n.method m()V\n'
        f'const-string v1, "{PLAY_URL}com.target.app"\n.end method'
    )
    assert targets == ("com.target.app",)


def test_scan_finds_market_scheme():
    targets = scan(
        '.class La;\n.method m()V\n'
        f'const-string v1, "{MARKET_SCHEME}com.x"\n.end method'
    )
    assert targets == ("com.x",)


def test_scan_ignores_other_urls():
    assert scan(
        '.class La;\n.method m()V\n'
        'const-string v1, "https://example.com/page"\n.end method'
    ) == ()


def test_scan_counts_multiple():
    lines = [".class La;", ".method m()V"]
    for index in range(5):
        lines.append(f'const-string v{index}, "{PLAY_URL}com.t{index}"')
    lines.append(".end method")
    assert scan("\n".join(lines)) == tuple(f"com.t{index}"
                                           for index in range(5))


@pytest.fixture(scope="module")
def play_stats():
    return run_analysis(AnalysisSpec(corpus="play"), shards=1,
                        backend="serial").stats


def test_table_iv_buckets_match_paper(play_stats):
    buckets = table4_counts(play_stats)
    assert buckets == {1: 723, 2: 1405, 4: 2090, 8: 2337}
    assert buckets[1] / play_stats.count("apps") == pytest.approx(
        0.0567, abs=0.0005)


def test_redirecting_fraction_matches_847_percent(play_stats):
    assert play_stats.count("redirect/apps_with_any") == 10799
    assert (play_stats.count("redirect/apps_with_any")
            / play_stats.count("apps")) == pytest.approx(0.847, abs=0.001)


def test_easy_targets_are_single_url_apps(play_stats):
    assert (play_stats.count("redirect_count/1")
            == play_stats.count("redirect/single_predictable") == 723)


def test_single_url_targets_are_predictable():
    """The one hardcoded target is a companion of the hosting app."""
    classifier = InstallerClassifier()
    sample = []
    for app in PlayCorpusPlan(seed=2016).iter_apps():
        record = analyze_app(app, classifier)
        if len(record.redirect_targets) == 1:
            sample.append(record)
            if len(sample) == 20:
                break
    assert len(sample) == 20
    assert all(record.redirect_targets[0].endswith(".companion")
               for record in sample)
