"""Tests for BENCH_*.json baselines and the regression gate."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.obs.baseline import (
    BenchBaseline,
    load_baseline,
    regression_gate,
    save_baseline,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def make_baseline(wall=1.0):
    return BenchBaseline(name="fleet", installs=100, shards=4,
                         backend="serial", repeats=3, wall_seconds=wall,
                         throughput=100 / wall, runs=[wall, wall * 1.1])


def test_baseline_round_trips_canonically(tmp_path):
    path = str(tmp_path / "BENCH_fleet.json")
    baseline = make_baseline(1.25)
    save_baseline(path, baseline)
    loaded = load_baseline(path)
    assert loaded == baseline
    # Canonical JSON: saving the loaded baseline is byte-identical.
    first = pathlib.Path(path).read_text()
    save_baseline(path, loaded)
    assert pathlib.Path(path).read_text() == first
    assert json.loads(first)["wall_seconds"] == 1.25


def test_load_rejects_malformed_baselines(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ReproError, match="cannot read"):
        load_baseline(str(missing))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ReproError, match="invalid baseline JSON"):
        load_baseline(str(bad_json))
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(ReproError, match="JSON object"):
        load_baseline(str(not_object))
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text('{"name": "fleet"}')
    with pytest.raises(ReproError, match="missing field"):
        load_baseline(str(incomplete))
    zero_wall = tmp_path / "zero.json"
    zero_wall.write_text(json.dumps({
        "name": "fleet", "installs": 1, "shards": 1, "backend": "serial",
        "repeats": 1, "wall_seconds": 0, "throughput": 0}))
    with pytest.raises(ReproError, match="wall_seconds"):
        load_baseline(str(zero_wall))


def test_load_ignores_unknown_fields(tmp_path):
    path = tmp_path / "future.json"
    payload = json.loads(make_baseline().to_json())
    payload["new_field_from_the_future"] = True
    path.write_text(json.dumps(payload))
    assert load_baseline(str(path)).name == "fleet"


def test_gate_passes_within_threshold_and_on_speedups():
    baseline = make_baseline(1.0)
    assert regression_gate(baseline, 1.05, threshold=0.10).ok
    assert regression_gate(baseline, 0.5, threshold=0.10).ok
    result = regression_gate(baseline, 1.0, threshold=0.0)
    assert result.ok and result.slowdown == 0.0


def test_gate_fails_past_threshold():
    baseline = make_baseline(1.0)
    result = regression_gate(baseline, 1.2, threshold=0.10)
    assert not result.ok
    assert result.slowdown == pytest.approx(0.2)
    assert "REGRESSION" in result.render()
    assert "+20.0%" in result.render()


def test_gate_rejects_nonsense_inputs():
    with pytest.raises(ReproError, match="threshold"):
        regression_gate(make_baseline(), 1.0, threshold=-0.1)
    with pytest.raises(ReproError, match="wall clock"):
        regression_gate(make_baseline(), 0.0)


# -- tools/bench.py end to end ----------------------------------------------


def run_bench(*argv):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "bench.py"), *argv],
        capture_output=True, text=True)


def test_bench_tool_gate_fires_on_synthetic_slowdown(tmp_path):
    baseline_path = str(tmp_path / "BENCH_fleet.json")
    small = ["--installs", "30", "--shards", "2", "--repeat", "1"]
    wrote = run_bench("--write", baseline_path, *small)
    assert wrote.returncode == 0, wrote.stderr
    assert pathlib.Path(baseline_path).exists()
    # A generous threshold always passes (timing noise cannot flake it).
    ok = run_bench("--compare", baseline_path, *small, "--threshold", "10.0")
    assert ok.returncode == 0, ok.stderr
    assert "OK" in ok.stdout
    # A synthetic 10x slowdown must trip the default 10% gate.
    slow = run_bench("--compare", baseline_path, *small,
                     "--inject-slowdown", "10.0")
    assert slow.returncode == 1, slow.stdout + slow.stderr
    assert "REGRESSION" in slow.stdout


def test_bench_tool_rejects_mismatched_baseline(tmp_path):
    baseline_path = str(tmp_path / "BENCH_fleet.json")
    wrote = run_bench("--write", baseline_path, "--installs", "30",
                      "--shards", "2", "--repeat", "1")
    assert wrote.returncode == 0, wrote.stderr
    mismatched = run_bench("--compare", baseline_path, "--installs", "60",
                           "--shards", "2", "--repeat", "1")
    assert mismatched.returncode == 2
    assert "matching --installs" in mismatched.stderr


def test_bench_tool_requires_exactly_one_mode():
    neither = run_bench("--installs", "10")
    assert neither.returncode == 2
    both = run_bench("--write", "a.json", "--compare", "b.json")
    assert both.returncode == 2


def test_bench_write_stamps_host_metadata(tmp_path):
    baseline_path = str(tmp_path / "BENCH_fleet.json")
    wrote = run_bench("--write", baseline_path, "--installs", "30",
                      "--shards", "2", "--repeat", "1")
    assert wrote.returncode == 0, wrote.stderr
    baseline = load_baseline(baseline_path)
    host = baseline.meta["host"]
    assert host["cpus"] >= 1
    assert host["platform"]
    assert host["python"].count(".") == 2
    # the gate compares wall_seconds only — a baseline recorded on a
    # different host (different meta) still gates cleanly
    ok = run_bench("--compare", baseline_path, "--installs", "30",
                   "--shards", "2", "--repeat", "1",
                   "--threshold", "10.0")
    assert ok.returncode == 0, ok.stderr


def test_committed_baseline_is_loadable_and_matches_reference_shape():
    baseline = load_baseline(str(REPO_ROOT / "BENCH_fleet.json"))
    assert baseline.name == "fleet"
    assert baseline.backend == "serial"
    assert baseline.installs == 2000
    assert baseline.shards == 4
    assert baseline.wall_seconds > 0
    assert baseline.meta.get("seed") == 7
