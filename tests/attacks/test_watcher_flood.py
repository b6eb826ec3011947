"""Tests for the watcher-flood attack (queue-flood GIA variant)."""

import dataclasses

import pytest

from repro.attacks.base import fingerprint_for
from repro.attacks.watcher_flood import (
    FLOOD_TICK_NS,
    WatcherFloodHijacker,
)
from repro.android.device import nexus5
from repro.core.scenario import Scenario
from repro.installers import AmazonInstaller, GooglePlayInstaller
from repro.sim.events import DEFAULT_DRAIN_INTERVAL_NS, WatchLimits

TARGET = "com.victim.app"


def flood_scenario(installer_cls=AmazonInstaller, depth=64, defenses=()):
    device = nexus5()
    if depth is not None:
        device = dataclasses.replace(
            device, watch_limits=WatchLimits(
                max_queue_depth=depth,
                drain_interval_ns=DEFAULT_DRAIN_INTERVAL_NS))
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=lambda s: WatcherFloodHijacker(
            fingerprint_for(installer_cls)),
        device=device,
        defenses=defenses,
    )
    scenario.publish_app(TARGET, label="Victim")
    return scenario


def flood_files(scenario):
    """The junk files the flood left in the attacker's watch directory."""
    watch_dir = scenario.attacker.fingerprint.watch_dir
    fs = scenario.system.fs
    if not fs.exists(watch_dir):
        return []
    return [name for name in fs.listdir(watch_dir)
            if name.startswith(".flood-")]


def test_flood_tick_undercuts_the_default_drain_interval():
    # The blinding argument: refills must outpace the per-event drain,
    # or the sawtooth leaves free slots for the tell-tale events.
    assert FLOOD_TICK_NS < DEFAULT_DRAIN_INTERVAL_NS


def test_flood_hijacks_and_blinds_dapp_on_lossy_device():
    scenario = flood_scenario(defenses=("dapp",))
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked
    assert not scenario.dapp.report.alarms  # DAPP saw nothing
    assert flood_files(scenario)
    # DAPP's own watch queue overflowed — that is the mechanism.
    assert any(obs.overflows for obs in scenario.dapp._observers)


def test_flood_still_hijacks_but_is_detected_when_lossless():
    scenario = flood_scenario(depth=None, defenses=("dapp",))
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked
    assert scenario.dapp.report.alarms  # all noise, no cover


def test_flood_is_vacuous_against_private_staging_stores():
    # Google Play stages in a private directory the attacker cannot
    # even see: no shared watch dir, nothing to flood, no hijack.
    scenario = flood_scenario(installer_cls=GooglePlayInstaller)
    outcome = scenario.run_install(TARGET)
    assert not outcome.hijacked
    assert flood_files(scenario) == []
