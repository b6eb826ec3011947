"""Golden-trace regression test for the determinism contract.

The goldens under ``tests/engine/golden/`` were recorded from the
reference fleet (200 installs, seed 7, 4 shards, serial backend)
*before* the hot-path optimization pass; this test re-runs the same
fleet and demands byte-identical trace JSONL and bit-identical merged
metric snapshots.  Any "optimization" that changes scheduling order,
metric values, or trace content fails here first.  Every shard also
samples its wall-clock telemetry (always on), so these runs pin that
the sampling never perturbs the deterministic artifacts.

That reference fleet is benign: no device in it has a file watcher, so
it never builds or delivers a filesystem event.  Two more goldens pin
the *watched* path, recorded before the event-path rewrite:

* ``hijack_s7x3`` — the FileObserver attacker against DAPP (every
  Table VII hijack cell runs through this stream);
* ``flood_s7x3`` — the watcher-flood attack against ``dapp-rescan``
  behind a depth-8 bounded queue, so the lossy ``_offer`` path and its
  ``Q_OVERFLOW`` sentinels are exercised too.
"""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.engine import CampaignSpec, NullProgress, run_fleet
from repro.obs import write_trace_jsonl

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_TRACE = GOLDEN_DIR / "fleet_s7x4.jsonl"
GOLDEN_METRICS = GOLDEN_DIR / "fleet_s7x4_metrics.json"


def golden_spec() -> CampaignSpec:
    return CampaignSpec(installs=200, seed=7, observe=True)


def run_golden_fleet(backend="serial", workers=None):
    return run_fleet(golden_spec(), shards=4, backend=backend,
                     workers=workers, progress=NullProgress())


def test_trace_is_byte_identical_to_the_golden(tmp_path):
    report = run_golden_fleet()
    current = tmp_path / "current.jsonl"
    count = write_trace_jsonl(str(current), report.trace_records())
    assert count == 1000
    assert current.read_bytes() == GOLDEN_TRACE.read_bytes()


def test_metrics_are_bit_identical_to_the_golden():
    report = run_golden_fleet()
    rendered = json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"
    assert rendered == GOLDEN_METRICS.read_text(encoding="utf-8")


def test_trace_diff_against_the_golden_is_empty(tmp_path, capsys):
    report = run_golden_fleet()
    current = tmp_path / "current.jsonl"
    write_trace_jsonl(str(current), report.trace_records())
    exit_code = main(["trace", "diff", "--trace", str(current),
                      "--against", str(GOLDEN_TRACE)])
    capsys.readouterr()
    assert exit_code == 0


WATCHED_GOLDENS = {
    "hijack_s7x3": (
        CampaignSpec(installs=60, seed=7, attack="fileobserver",
                     defenses=("dapp",), observe=True), 780),
    "flood_s7x3": (
        CampaignSpec(installs=6, seed=7, attack="watcher-flood",
                     defenses=("dapp-rescan",), watch_queue_depth=8,
                     observe=True), 114),
}


def run_watched_fleet(name):
    spec, _records = WATCHED_GOLDENS[name]
    return run_fleet(spec, shards=3, backend="serial",
                     progress=NullProgress())


@pytest.mark.parametrize("name", sorted(WATCHED_GOLDENS))
def test_watched_trace_is_byte_identical_to_the_golden(name, tmp_path):
    report = run_watched_fleet(name)
    current = tmp_path / "current.jsonl"
    count = write_trace_jsonl(str(current), report.trace_records())
    assert count == WATCHED_GOLDENS[name][1]
    assert current.read_bytes() == (GOLDEN_DIR / f"{name}.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(WATCHED_GOLDENS))
def test_watched_metrics_are_bit_identical_to_the_golden(name):
    report = run_watched_fleet(name)
    rendered = json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"
    golden = GOLDEN_DIR / f"{name}_metrics.json"
    assert rendered == golden.read_text(encoding="utf-8")
