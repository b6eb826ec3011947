"""Observability hooks across the simulator and scenario layers."""

from repro.attacks.base import fingerprint_for
from repro.attacks.toctou import FileObserverHijacker
from repro.core.scenario import Scenario
from repro.installers import installer_by_name
from repro.obs.metrics import MetricsRegistry, fold_metrics
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.kernel import Kernel, Sleep


def build_scenario(defenses=(), attack=True, recorder=None, metrics=None):
    installer_cls = installer_by_name("amazon")
    factory = None
    if attack:
        factory = lambda s: FileObserverHijacker(
            fingerprint_for(installer_cls))
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=factory,
        defenses=defenses,
        seed=7,
        recorder=recorder,
        metrics=metrics,
    )
    scenario.publish_app("com.bank.app", label="MyBank")
    return scenario


# -- kernel-level hooks ------------------------------------------------------


def test_kernel_defaults_to_null_observability():
    kernel = Kernel()
    assert kernel.obs is NULL_RECORDER
    assert kernel.metrics is None


def test_kernel_counts_dispatches_and_queue_peak():
    metrics = MetricsRegistry()
    kernel = Kernel(metrics=metrics)
    for index in range(3):
        kernel.call_later(index, lambda: None)
    kernel.run()
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["kernel/events_dispatched"] == 3
    assert snapshot["counters"]["kernel/run_calls"] == 1
    assert snapshot["gauges"]["kernel/queue_depth_peak"] == 3


def test_kernel_records_process_spans_and_step_latency():
    metrics = MetricsRegistry()
    recorder = TraceRecorder()
    kernel = Kernel(recorder=recorder, metrics=metrics)

    def proc():
        yield Sleep(100)
        yield Sleep(200)

    kernel.spawn(proc(), name="worker")
    kernel.run()
    spans = [r for r in recorder.records() if r["name"] == "kernel/process"]
    assert len(spans) == 1
    assert spans[0]["start_ns"] == 0
    assert spans[0]["end_ns"] == 300
    assert spans[0]["attrs"]["process"] == "worker"
    assert spans[0]["attrs"]["error"] == ""
    snapshot = fold_metrics(metrics, recorder.records())
    assert snapshot["counters"]["kernel/processes_finished"] == 1
    latency = snapshot["histograms"]["kernel/step_latency_ns"]
    assert latency["count"] >= 2
    assert latency["max"] == 200


def test_kernel_counts_failed_processes():
    metrics = MetricsRegistry()
    recorder = TraceRecorder()
    kernel = Kernel(recorder=recorder, metrics=metrics)

    def proc():
        yield Sleep(1)
        raise RuntimeError("boom")

    kernel.spawn(proc(), name="bad")
    kernel.run()
    snapshot = fold_metrics(metrics, recorder.records())
    assert snapshot["counters"]["kernel/processes_failed"] == 1
    (span,) = [r for r in recorder.records()
               if r["name"] == "kernel/process"]
    assert span["attrs"]["error"] == "RuntimeError"


# -- scenario-level hooks ----------------------------------------------------


def test_scenario_defaults_to_null_observability():
    scenario = build_scenario(attack=False)
    assert scenario.obs is NULL_RECORDER
    assert scenario.system.metrics is None
    outcome = scenario.run_install("com.bank.app")
    assert outcome.installed


def test_hijack_run_emits_ait_spans_and_attack_events():
    recorder = TraceRecorder()
    scenario = build_scenario(recorder=recorder)
    outcome = scenario.run_install("com.bank.app")
    assert outcome.hijacked
    names = [record["name"] for record in recorder.records()]
    # One span per traced AIT step (amazon's AIT starts at DOWNLOAD).
    for step in ("ait/download", "ait/trigger", "ait/install"):
        assert step in names
    assert "attack/arm" in names
    assert "attack/strike" in names
    assert "attack/window" in names
    assert "attack/hijack" in names
    assert "install/outcome" in names
    (outcome_event,) = [r for r in recorder.records()
                        if r["name"] == "install/outcome"]
    assert outcome_event["attrs"]["hijacked"] is True


def test_defended_run_emits_block_events_not_hijack():
    recorder = TraceRecorder()
    scenario = build_scenario(defenses=("fuse-dac",), recorder=recorder)
    outcome = scenario.run_install("com.bank.app")
    assert not outcome.hijacked
    names = [record["name"] for record in recorder.records()]
    assert "defense/block" in names
    assert "attack/hijack" not in names
    (strike,) = [r for r in recorder.records()
                 if r["name"] == "attack/strike"]
    assert strike["attrs"]["blocked"] is True


def test_intent_defenses_emit_decision_events():
    from repro.android.intent_firewall import IntentRecord
    from repro.android.intents import Intent
    from repro.defenses.intent_detection import IntentDetectionScheme
    from repro.defenses.intent_origin import IntentOriginScheme
    from repro.sim.clock import millis

    def record_at(sender, time_ns, uid):
        return IntentRecord(
            intent=Intent(target_package="com.store"),
            sender_package=sender, sender_uid=uid,
            sender_is_system=False, recipient_package="com.store",
            delivery_time_ns=time_ns)

    recorder = TraceRecorder()
    origin = IntentOriginScheme()
    origin.bind_observability(recorder)
    origin.inspect(record_at("com.facebook", 0, uid=10050))
    (stamp,) = recorder.records()
    assert stamp["name"] == "defense/stamp"
    assert stamp["attrs"]["sender"] == "com.facebook"
    assert stamp["t_ns"] == 0

    recorder = TraceRecorder()
    detection = IntentDetectionScheme()
    detection.bind_observability(recorder)
    detection.inspect(record_at("com.facebook", 0, uid=10050))
    detection.inspect(record_at("com.evil", millis(300), uid=10099))
    (alarm,) = recorder.records()
    assert alarm["name"] == "defense/alarm"
    assert alarm["t_ns"] == millis(300)
    assert "com.evil" in alarm["attrs"]["reason"]


def test_scenario_binds_intent_defense_observability():
    recorder = TraceRecorder()
    scenario = build_scenario(
        defenses=("intent-detection", "intent-origin"), recorder=recorder)
    assert scenario.intent_detection._obs is recorder
    assert scenario.intent_origin._obs is recorder


def test_scenario_metrics_counters():
    metrics = MetricsRegistry()
    recorder = TraceRecorder()
    scenario = build_scenario(recorder=recorder, metrics=metrics)
    scenario.run_install("com.bank.app")
    snapshot = fold_metrics(metrics, recorder.records())
    counters = snapshot["counters"]
    assert counters["ait/runs"] == 1
    assert counters["ait/installed"] == 1
    assert counters["ait/hijacked"] == 1
    assert counters["attack/strikes"] == 1
    histograms = snapshot["histograms"]
    assert histograms["ait/elapsed_ns"]["count"] == 1
    assert histograms["attack/window_ns"]["count"] == 1


def test_trace_uses_simulated_time_only():
    # Every timestamp in the trace is a simulated-nanosecond integer,
    # far below any wall-clock epoch reading — the determinism
    # guarantee rests on this.
    recorder = TraceRecorder()
    scenario = build_scenario(defenses=("fuse-dac",), recorder=recorder)
    scenario.run_install("com.bank.app")
    for record in recorder.records():
        for key in ("t_ns", "start_ns", "end_ns"):
            if key in record:
                assert 0 <= record[key] < 10**15
