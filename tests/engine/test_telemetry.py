"""Telemetry rides beside the deterministic plane, never inside it.

Every shard samples one clock pair and one rusage pair, always.  Here:
the golden run, with every shard sampled, still produces the exact
golden trace bytes and metric bits; ``wall_seconds`` and ``wall_ns``
are read from the one clock pair, on every backend and for restored
shards; and the report folds the telemetry once.
"""

import json
import re

import pytest

from repro.engine import CampaignSpec, NullProgress, run_fleet
from repro.engine.executor import multiprocessing_usable
from repro.obs import write_trace_jsonl
from repro.obs.runtime import TelemetryRollup
from repro.serve.checkpoint import ShardJournal

from tests.engine.test_golden import (
    GOLDEN_METRICS,
    GOLDEN_TRACE,
    golden_spec,
)


def run_golden(profile_shards=False):
    return run_fleet(golden_spec(), shards=4, backend="serial",
                     progress=NullProgress(), profile_shards=profile_shards)


def assert_one_clock(report):
    for shard in report.shards:
        assert shard.telemetry["shard_index"] == shard.shard_index
        assert shard.wall_seconds == shard.telemetry["wall_ns"] / 1e9


# -- goldens unchanged by the sampling -------------------------------------

def test_golden_trace_bytes_survive_telemetry(tmp_path):
    report = run_golden()
    assert TelemetryRollup.from_dict(report.telemetry).shards == 4
    current = tmp_path / "with_telemetry.jsonl"
    write_trace_jsonl(str(current), report.trace_records())
    assert current.read_bytes() == GOLDEN_TRACE.read_bytes()


def test_golden_metrics_bits_survive_telemetry():
    report = run_golden()
    assert all(shard.telemetry for shard in report.shards)
    rendered = json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"
    assert rendered == GOLDEN_METRICS.read_text(encoding="utf-8")


# -- one clock per shard ----------------------------------------------------

def test_wall_seconds_and_telemetry_share_one_clock(tmp_path):
    spec = CampaignSpec(installs=40, seed=7)
    serial = run_fleet(spec, shards=2, backend="serial")
    assert {shard.backend for shard in serial.shards} == {"serial"}
    assert_one_clock(serial)

    journal = ShardJournal(tmp_path / "ck", spec, 2)
    journal.record(serial.shards[0])
    resumed = run_fleet(spec, shards=2, backend="serial",
                        checkpoint=ShardJournal(tmp_path / "ck", spec, 2))
    assert resumed.counters["restored"] == 1
    assert resumed.shards[0].telemetry == serial.shards[0].telemetry
    assert_one_clock(resumed)


@pytest.mark.skipif(not multiprocessing_usable(),
                    reason="multiprocessing unavailable in this environment")
def test_pool_and_fallback_shards_share_one_clock():
    spec = CampaignSpec(installs=40, seed=7, chaos="error:1")
    report = run_fleet(spec, shards=2, workers=2, max_retries=0)
    assert [shard.backend for shard in report.shards] == [
        "process", "serial-fallback"]
    assert_one_clock(report)


# -- report surface ---------------------------------------------------------

def test_report_telemetry_folds_all_shards():
    report = run_golden()
    rollup = TelemetryRollup.from_dict(report.telemetry)
    assert rollup.shards == 4
    assert rollup.wall_ns == sum(shard.telemetry["wall_ns"]
                                 for shard in report.shards)
    assert rollup.retries == 0
    assert "telemetry  : cpu" in report.render()


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
    report = run_analysis(spec, shards=2, backend="serial")
    # the deterministic table never mentions the wall-clock plane
    assert "telemetry" not in report.render()
    assert "cpu" not in report.render()
    assert report.telemetry["shards"] == 2
