"""Tests for the attack-timeline recorder."""

from repro.attacks.base import fingerprint_for
from repro.attacks.toctou import FileObserverHijacker
from repro.core.scenario import Scenario
from repro.core.timeline import Timeline
from repro.installers import AmazonInstaller, DTIgniteInstaller

TARGET = "com.victim.app"


def test_records_fs_and_pms_events():
    scenario = Scenario.build(installer=DTIgniteInstaller)
    timeline = Timeline(scenario.system).start()
    scenario.publish_app(TARGET)
    scenario.run_install(TARGET)
    sources = {entry.source for entry in timeline.entries}
    assert "fs" in sources
    assert "pms" in sources


def test_absorb_trace_adds_step_markers():
    scenario = Scenario.build(installer=DTIgniteInstaller)
    timeline = Timeline(scenario.system).start()
    scenario.publish_app(TARGET)
    outcome = scenario.run_install(TARGET)
    timeline.absorb_trace(outcome.trace)
    rendered = timeline.render(sources={"ait"})
    assert "step 2 (APK Download) begins" in rendered
    assert "step 4 (APK Install) ends" in rendered


def test_notes_stamped_at_sim_time():
    scenario = Scenario.build(installer=DTIgniteInstaller)
    timeline = Timeline(scenario.system).start()
    scenario.system.kernel.clock.advance_to(5_000_000)
    timeline.note("attacker armed")
    assert timeline.entries[-1].time_ns == 5_000_000
    assert "attacker armed" in timeline.render()


def test_render_is_time_sorted_and_limitable():
    scenario = Scenario.build(installer=AmazonInstaller)
    timeline = Timeline(scenario.system).start()
    scenario.publish_app(TARGET)
    scenario.run_install(TARGET)
    lines = timeline.render().splitlines()
    times = [float(line.split("ms")[0]) for line in lines]
    assert times == sorted(times)
    assert len(timeline.render(limit=5).splitlines()) == 5


def test_hijack_transcript_shows_the_swap():
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
    )
    timeline = Timeline(scenario.system).start()
    scenario.publish_app(TARGET)
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked
    staged_events = [entry for entry in timeline.entries
                     if "/sdcard/DTIgnite/com.victim.app.apk" in entry.text]
    # Two CLOSE_WRITEs on the staged file: the download and the swap.
    close_writes = [
        entry for entry in staged_events if "CLOSE_WRITE" in entry.text
    ]
    assert len(close_writes) == 2


def test_start_is_idempotent():
    scenario = Scenario.build(installer=DTIgniteInstaller)
    timeline = Timeline(scenario.system).start().start()
    scenario.publish_app(TARGET)
    scenario.run_install(TARGET)
    install_broadcasts = [
        entry for entry in timeline.entries
        if entry.source == "pms" and "PACKAGE_ADDED" in entry.text
    ]
    # One broadcast, recorded once (not double-subscribed).
    assert len(install_broadcasts) == 1
