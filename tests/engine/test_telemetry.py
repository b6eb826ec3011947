"""Telemetry rides beside the deterministic plane, never inside it.

Two contracts:

1. the golden fleet run WITH telemetry on still produces the exact
   golden trace bytes and metric bits — sampling the wall clock must
   not perturb anything determinism comparisons see;
2. with telemetry off (the default), the executor's fast path makes
   zero clock/rusage samples — proven by monkeypatch-counting the
   hooks every probe goes through.
"""

import json
import re

import pytest

from repro.engine import CampaignSpec, NullProgress, run_fleet
from repro.obs import write_trace_jsonl
from repro.obs.runtime import TelemetryRollup

from tests.engine.test_golden import (
    GOLDEN_METRICS,
    GOLDEN_TRACE,
    golden_spec,
)


def run_golden(telemetry=False, profile_shards=False):
    return run_fleet(golden_spec(), shards=4, backend="serial",
                     progress=NullProgress(), telemetry=telemetry,
                     profile_shards=profile_shards)


# -- invariant 1: goldens unchanged with telemetry on -----------------------

def test_golden_trace_bytes_survive_telemetry(tmp_path):
    report = run_golden(telemetry=True)
    current = tmp_path / "with_telemetry.jsonl"
    write_trace_jsonl(str(current), report.trace_records())
    assert current.read_bytes() == GOLDEN_TRACE.read_bytes()


def test_golden_metrics_bits_survive_telemetry():
    report = run_golden(telemetry=True)
    rendered = json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"
    assert rendered == GOLDEN_METRICS.read_text(encoding="utf-8")


def test_stats_identical_with_and_without_telemetry():
    plain = run_golden()
    probed = run_golden(telemetry=True)
    assert plain.stats.counter_tuple() == probed.stats.counter_tuple()
    assert plain.telemetry is None
    assert probed.telemetry is not None


# -- invariant 2: disabled path samples nothing -----------------------------

@pytest.fixture
def hook_counter(monkeypatch):
    """Count every telemetry clock/rusage sample the engine takes."""
    import repro.obs.runtime as runtime

    calls = {"clock": 0, "rusage": 0}
    real_clock, real_rusage = runtime._clock_ns, runtime._rusage

    def counting_clock():
        calls["clock"] += 1
        return real_clock()

    def counting_rusage():
        calls["rusage"] += 1
        return real_rusage()

    monkeypatch.setattr(runtime, "_clock_ns", counting_clock)
    monkeypatch.setattr(runtime, "_rusage", counting_rusage)
    return calls


def test_disabled_telemetry_takes_zero_samples(hook_counter):
    report = run_fleet(CampaignSpec(installs=40, seed=7), shards=2,
                       backend="serial", progress=NullProgress())
    assert report.stats.runs == 40
    assert report.telemetry is None
    assert hook_counter == {"clock": 0, "rusage": 0}


def test_enabled_telemetry_samples_twice_per_shard(hook_counter):
    report = run_fleet(CampaignSpec(installs=40, seed=7), shards=2,
                       backend="serial", progress=NullProgress(),
                       telemetry=True)
    assert report.telemetry is not None
    # one probe per shard: start + finish = 2 samples of each hook
    assert hook_counter == {"clock": 4, "rusage": 4}


# -- report surface ---------------------------------------------------------

def test_report_telemetry_folds_all_shards():
    report = run_golden(telemetry=True)
    rollup = TelemetryRollup.from_dict(report.telemetry)
    assert rollup.shards == 4
    assert rollup.wall_ns > 0
    assert rollup.retries == 0
    assert "telemetry" in report.render()


def test_profile_shards_returns_mergeable_blobs(tmp_path):
    from repro.obs.runtime import write_hotspots

    report = run_golden(profile_shards=True)
    blobs = [shard.profile for shard in report.shards if shard.profile]
    assert len(blobs) == 4
    table = write_hotspots(tmp_path / "hot.txt", blobs)
    text = table.read_text(encoding="utf-8")
    assert "4 shard profile(s)" in text
    assert re.search(r"spec\.py:\d+\(execute\)", text)


def test_analysis_report_carries_telemetry_beside_stdout():
    from repro.analysis.pipeline import AnalysisSpec, run_analysis

    spec = AnalysisSpec(corpus="play", apps=400, seed=2016)
    plain = run_analysis(spec, shards=2, backend="serial")
    probed = run_analysis(spec, shards=2, backend="serial",
                          telemetry=True)
    # the deterministic table never mentions the wall-clock plane
    assert plain.render() == probed.render()
    assert plain.telemetry is None
    assert probed.telemetry["shards"] == 2
