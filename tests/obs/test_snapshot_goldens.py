"""Goldens for the metric snapshots no other golden pins.

``tests/engine/golden`` pins three benign or DAPP fleets.  These pin
the rest of what ``--metrics`` prints, byte for byte:

* a FileObserver fleet against FUSE-DAC, whose ``attack/strikes_blocked``
  and ``campaign/blocked_runs`` are nonzero;
* the merged snapshots of ``analyze --corpus play`` and
  ``--corpus images`` at small sizes;
* the stdout of the in-process ``repro attack --metrics`` and
  ``repro demo --metrics``.

A snapshot is a fold of the shard's stats, its trace and its registry
(:func:`repro.obs.fold_metrics`), so a fold that drifts from any of
those sources fails here.
"""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.analysis.pipeline import AnalysisSpec
from repro.engine import CampaignSpec, NullProgress, run_fleet

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

FLEETS = {
    "blocked_s7x3": (CampaignSpec(installs=12, seed=7, attack="fileobserver",
                                  defenses=("fuse-dac",), observe=True), 3),
    "play_a60x2": (AnalysisSpec(corpus="play", apps=60, observe=True), 2),
    "images_a50x2": (AnalysisSpec(corpus="images", apps=50, observe=True), 2),
}

COMMANDS = {
    "attack": ["attack", "--metrics"],
    "demo": ["demo", "--metrics"],
}


def _snapshot_text(name):
    spec, shards = FLEETS[name]
    report = run_fleet(spec, shards=shards, backend="serial",
                       progress=NullProgress())
    return json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"


def _stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_merged_snapshot_is_bit_identical_to_the_golden(name):
    golden = GOLDEN_DIR / f"{name}_metrics.json"
    assert _snapshot_text(name) == golden.read_text(encoding="utf-8")


def test_the_blocked_fleet_golden_pins_nonzero_block_counters():
    counters = json.loads(
        (GOLDEN_DIR / "blocked_s7x3_metrics.json").read_text())["counters"]
    assert counters["attack/strikes_blocked"] > 0
    assert counters["campaign/blocked_runs"] > 0


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_in_process_metrics_stdout_is_identical_to_the_golden(name, capsys):
    golden = GOLDEN_DIR / f"{name}_metrics.txt"
    assert _stdout(COMMANDS[name], capsys) == golden.read_text(
        encoding="utf-8")


def test_attack_metrics_do_not_depend_on_the_trace_flag(tmp_path, capsys):
    untraced = _stdout(["attack", "--metrics"], capsys)
    traced = _stdout(["attack", "--metrics",
                      "--trace", str(tmp_path / "attack.jsonl")], capsys)
    assert traced == untraced
