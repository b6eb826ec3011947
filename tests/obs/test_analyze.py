"""Tests for trace forensics: profiles, span trees, critical paths,
window forensics, and trace diffing — including the golden-stability
contract (same seed/shards -> byte-identical analysis reports)."""

import pytest

from repro.engine.executor import run_fleet
from repro.engine.spec import CampaignSpec
from repro.obs.analyze import (
    build_span_trees,
    critical_path,
    diff_traces,
    layer_of,
    profile_trace,
    render_critical_path,
    render_diff,
    render_profile,
    render_windows,
    window_forensics,
)
from repro.obs.trace import TraceRecorder


def make_records():
    """A tiny handcrafted two-run trace (one hijacked, one clean)."""
    recorder = TraceRecorder()
    # Run 1: hijacked, wide window.
    recorder.event("attack/arm", 0)
    recorder.event("attack/strike", 800, blocked=False)
    recorder.span("attack/window", 0, 800, blocked=False)
    recorder.span("kernel/process", 0, 1000, process="ait-a")
    recorder.span("ait/download", 0, 400)
    recorder.span("ait/trigger", 400, 800)
    recorder.span("ait/install", 1000, 1000)
    recorder.event("install/outcome", 1000, package="a", hijacked=True)
    # Run 2: clean (defense blocked the strike), narrow window.
    recorder.event("attack/arm", 1000)
    recorder.event("attack/strike", 1100, blocked=True)
    recorder.span("attack/window", 1000, 1100, blocked=True)
    recorder.span("kernel/process", 1000, 1900, process="ait-b")
    recorder.span("ait/download", 1000, 1500)
    recorder.span("ait/trigger", 1500, 1700)
    recorder.event("install/outcome", 1900, package="b", hijacked=False)
    return recorder.records()


# -- profiles ----------------------------------------------------------------


def test_profile_counts_spans_events_and_layers():
    profile = profile_trace(make_records())
    assert profile.records == 15
    assert profile.shards == 1
    assert profile.spans["ait/download"].count == 2
    assert profile.spans["ait/download"].total == 400 + 500
    assert profile.events["attack/arm"] == 2
    assert profile.layers["ait"].count == 5
    assert profile.layers["kernel"].total == 1000 + 900
    assert layer_of("ait/download") == "ait"
    assert layer_of("bare") == "bare"


def test_profile_render_is_deterministic():
    records = make_records()
    assert render_profile(profile_trace(records)) == render_profile(
        profile_trace(records))


# -- span trees and critical path --------------------------------------------


def test_span_tree_nesting_by_containment():
    roots = build_span_trees(make_records())
    processes = [root for root in roots if root.name == "kernel/process"]
    assert len(processes) == 2
    first = processes[0]
    names = {child.name for child in first.children}
    assert "attack/window" in names
    window = next(c for c in first.children if c.name == "attack/window")
    assert {child.name for child in window.children} == {
        "ait/download", "ait/trigger"}


def test_critical_path_walks_dominant_children():
    path = critical_path(make_records())
    assert path[0].node.name == "kernel/process"
    assert path[0].node.duration_ns == 1000  # the longer of the two runs
    assert path[1].node.name == "attack/window"
    assert path[-1].node.duration_ns <= path[0].node.duration_ns
    assert path[0].share == 1.0
    text = render_critical_path(path)
    assert "critical path" in text
    assert "kernel/process" in text


def test_critical_path_honours_shard_filter():
    recorder = TraceRecorder()
    recorder.span("kernel/process", 0, 100)
    records = [dict(r, shard=3) for r in recorder.records()]
    assert critical_path(records, shard=3)[0].node.shard == 3
    assert critical_path(records, shard=1) == []
    assert render_critical_path([]) == "critical path: no spans in trace"


# -- window forensics --------------------------------------------------------


def test_window_forensics_splits_by_outcome():
    report = window_forensics(make_records())
    assert report.arms == 2
    assert report.strikes == 2
    assert report.outcomes == 2
    assert report.unresolved == 0
    assert report.hijacked.widths_ns == [800]
    assert report.hijacked.blocked == 0
    assert report.clean.widths_ns == [100]
    assert report.clean.blocked == 1


def test_window_forensics_keeps_shards_separate():
    # Two shards interleaved: each outcome only claims its own shard's
    # pending windows.
    records = [
        {"type": "span", "name": "attack/window", "start_ns": 0,
         "end_ns": 500, "shard": 0},
        {"type": "span", "name": "attack/window", "start_ns": 0,
         "end_ns": 900, "shard": 1},
        {"type": "event", "name": "install/outcome", "t_ns": 1000,
         "shard": 0, "attrs": {"hijacked": True}},
        {"type": "event", "name": "install/outcome", "t_ns": 1000,
         "shard": 1, "attrs": {"hijacked": False}},
    ]
    report = window_forensics(records)
    assert report.hijacked.widths_ns == [500]
    assert report.clean.widths_ns == [900]


def test_window_forensics_counts_unresolved_windows():
    records = [{"type": "span", "name": "attack/window", "start_ns": 0,
                "end_ns": 100}]
    report = window_forensics(records)
    assert report.unresolved == 1
    assert "unresolved" in render_windows(report)


def test_window_percentiles_are_exact_nearest_rank():
    report = window_forensics(make_records())
    stats = report.hijacked
    assert stats.percentile_ns(50) == 800
    assert stats.percentile_ns(99) == 800
    assert report.clean.percentile_ns(50) == 100
    empty_text = render_windows(window_forensics([]))
    assert "0 arm(s)" in empty_text


# -- trace diffing -----------------------------------------------------------


def test_diff_of_identical_traces_is_empty():
    records = make_records()
    diff = diff_traces(records, records)
    assert diff.empty
    assert render_diff(diff) == "trace diff: identical"


def test_diff_reports_added_removed_and_time_deltas():
    old = make_records()
    new = [dict(record) for record in old]
    # Stretch the second kernel/process span, drop an outcome, add a
    # defense event.
    new[11] = dict(new[11], end_ns=new[11]["end_ns"] + 50)  # 2nd process span
    removed = new.pop(7)  # first install/outcome
    new.append({"type": "event", "name": "defense/block", "t_ns": 900})
    diff = diff_traces(old, new)
    assert not diff.empty
    assert any(r.get("name") == "defense/block" for r in diff.added)
    assert any(r.get("name") == removed["name"] for r in diff.removed)
    span_deltas = [d for d in diff.changed if d.kind == "span"]
    assert any(d.duration_delta == 50 for d in span_deltas)
    text = render_diff(diff)
    assert "added" in text and "removed" in text and "changed" in text


def test_diff_detail_cap_never_hides_totals():
    old = [{"type": "event", "name": "e", "t_ns": t} for t in range(30)]
    new = [{"type": "event", "name": "e", "t_ns": t + 1} for t in range(30)]
    diff = diff_traces(old, new)
    assert len(diff.changed) == 30
    text = render_diff(diff, max_detail=5)
    assert "30 changed" in text
    assert "... 25 more" in text


# -- golden stability over a real fleet trace --------------------------------

SPEC = dict(installs=10, seed=11, attack="fileobserver", observe=True)


def fleet_records(defenses=()):
    report = run_fleet(CampaignSpec(defenses=tuple(defenses), **SPEC),
                       shards=2, backend="serial")
    return report.trace_records()


def test_fleet_analysis_reports_are_byte_stable():
    first = fleet_records()
    second = fleet_records()
    assert first == second
    assert (render_windows(window_forensics(first))
            == render_windows(window_forensics(second)))
    assert (render_critical_path(critical_path(first))
            == render_critical_path(critical_path(second)))
    assert (render_profile(profile_trace(first))
            == render_profile(profile_trace(second)))


def test_fleet_window_forensics_reproduces_hijack_split():
    undefended = window_forensics(fleet_records())
    defended = window_forensics(fleet_records(defenses=("fuse-dac",)))
    # Undefended Amazon + fileobserver hijacks every run (Table VII).
    assert undefended.hijacked.count == 10
    assert undefended.clean.count == 0
    # fuse-dac blocks the swap: every window ends clean and blocked.
    assert defended.hijacked.count == 0
    assert defended.clean.count == 10
    assert defended.clean.blocked == 10


def test_fleet_defense_diff_shows_blocked_strikes():
    diff = diff_traces(fleet_records(), fleet_records(("fuse-dac",)))
    assert not diff.empty
    added_names = {record.get("name") for record in diff.added}
    removed_names = {record.get("name") for record in diff.removed}
    assert "defense/block" in added_names
    assert "attack/hijack" in removed_names
