"""The benchmark's own tests: a tiny run of every workload, and proof
that a wrong or failing job is counted as failed operations.

    python3 -m pytest perfbench/test_perfbench.py -q

They shrink every job with ``scale`` and take one set-up sample, so the
whole file runs in well under a minute.
"""

from __future__ import annotations

import json

import pytest

import run
import workloads

TINY = 0.1


def bench(capsys, *argv, scale=TINY):
    assert run.main(list(argv), scale=scale, setup_samples=1) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_and_checks_out(capsys, name):
    detail, result = bench(capsys, "--workload", name, "--seconds", "0.3")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name_, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name_]
        assert entry["value"] > 0, name_
    assert {"cpus", "platform", "python", "nproc"} <= set(detail["host"])


@pytest.mark.parametrize("name", ["fleet-hijack", "serve-jobs"])
def test_traced_run_reports_every_layer_metric(capsys, name):
    detail, result = bench(capsys, "--workload", name, "--trace", "1")
    assert result["correct"], detail["errors"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["ledger.named_share_pct"]["value"] >= 90.0


def test_exact_counts_repeat(capsys):
    counts = [name for name, (unit, _) in run.PER_LAYER.items()
              if unit == "count"]
    first = bench(capsys, "--workload", "fleet-hijack", "--trace", "1")[1]
    second = bench(capsys, "--workload", "fleet-hijack", "--trace", "1")[1]
    assert first["metrics"]["events.published"]["value"] > 0
    assert ({name: first["metrics"][name]["value"] for name in counts}
            == {name: second["metrics"][name]["value"] for name in counts})


def _tampered(run_job):
    def tampered(self, index, **kwargs):
        output = run_job(self, index, **kwargs)
        slot, counters = output.value
        output.value = (slot, (counters[0] + 1,) + counters[1:])
        return output
    return tampered


def _raising(self, index, **kwargs):
    raise RuntimeError("injected failure")


@pytest.mark.parametrize("fault", [_tampered(workloads.FleetWorkload.run_job),
                                   _raising])
def test_a_wrong_or_failing_job_counts_as_failed(capsys, monkeypatch, fault):
    set_up = run.set_up

    def set_up_then_break(workload):
        seconds = set_up(workload)
        monkeypatch.setattr(type(workload), "run_job", fault)
        return seconds

    monkeypatch.setattr(run, "set_up", set_up_then_break)
    _, result = bench(capsys, "--workload", "fleet-hijack", "--seconds",
                      "0.3")
    assert not result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_times_are_scaled_to_the_reference_host_speed():
    class Stub:
        @staticmethod
        def operations():
            return 10

        @staticmethod
        def peak_rss_mb():
            return 1.0

    def records(slowdown, stolen_ms=0):
        # A job of 50 ms at the reference speed, on a host ``slowdown``
        # times slower, with ``stolen_ms`` of every CPU stolen.
        wall = 50_000_000 * slowdown + stolen_ms * 1_000_000
        return [run.JobRecord(0, wall, True, wall // 2, 0.04 * slowdown,
                              run.PROBE_REF_NS * slowdown,
                              stolen_ms * run.CPUS / 1000.0, wall)
                for _ in range(40)]

    setups = [{"setup_s": 1.0, "setup_raw_s": 2.0}]
    fast = run.end_to_end(Stub, records(1), Stub, setups)
    assert fast["latency_p50_ms"] == pytest.approx(50.0)
    assert fast["items_per_s"] == pytest.approx(200.0)
    assert fast == pytest.approx(run.end_to_end(Stub, records(2), Stub,
                                                setups))
    # Stolen time is taken out of wall times, not out of CPU times.
    robbed = run.end_to_end(Stub, records(1, stolen_ms=25), Stub, setups)
    assert robbed == pytest.approx(fast)
    measured = run.end_to_end(Stub, records(2, stolen_ms=25), Stub, setups,
                              normalize=False)
    assert measured["latency_p50_ms"] == pytest.approx(125.0)
    assert measured["setup_s"] == 2.0


def test_worker_time_is_split_out_of_the_waiting_span():
    import tracer

    # A root job span, an executor span waiting 0..100, a spawn child at
    # 0..10, and workers busy over 5..40 and 30..60.
    spans = [["job", tracer.UNATTRIBUTED, 0, 110, -1, 0],
             ["FleetExecutor.run", "engine.executor", 0, 100, 0, 0],
             ["BaseProcess.start", "engine.executor", 0, 10, 1, 0]]
    tracer.attribute_workers(spans, [(5, 40), (30, 60)],
                             ("FleetExecutor.run",), "engine.workers")
    layers = tracer.self_times(spans)
    assert layers["engine.workers"]["self_ns"] == 50      # 10..60
    assert layers["engine.executor"]["self_ns"] == 50     # 0..10, 60..100
    assert layers[tracer.UNATTRIBUTED]["self_ns"] == 10
    assert tracer.named_ns(layers) == 100


def test_coroutine_steps_are_spans_of_their_own():
    import tracer

    trace = tracer.Tracer()

    def worker():
        total = yield "first"
        return total + 1

    stepped = trace.steps(worker(), "installers", "worker step")
    assert stepped.send(None) == "first"
    with pytest.raises(StopIteration) as stop:
        stepped.send(41)
    assert stop.value.value == 42
    assert [(span[0], span[1]) for span in trace.spans] == [
        ("worker step", "installers")] * 2


def test_work_after_a_job_returns_still_counts():
    import threading
    import time

    burns = []

    class AfterDone:
        """Each job returns at once and leaves 20 ms of CPU work behind."""

        roots = []

        @staticmethod
        def run_job(index):
            def burn():
                end = time.thread_time() + 0.02
                while time.thread_time() < end:
                    pass

            worker = threading.Thread(target=burn)
            burns.append(worker)
            worker.start()
            return workloads.JobOutput((0, None), 0)

        @staticmethod
        def check(output):
            return True

    records, _ = run.timed_loop(AfterDone, 0.5, [])
    for worker in burns:
        worker.join(timeout=5)
        assert not worker.is_alive()
    # Every turn but the last ends after its job's burn has run at least
    # in part; summed over the turns, nearly all of it is counted.
    counted = sum(record.cpu_s for record in records)
    assert counted >= 0.8 * 0.02 * (len(records) - 1)
