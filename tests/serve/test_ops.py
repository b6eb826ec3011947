"""Ops surface of the campaign service: metrics, flight, health extras.

The scheduling/recovery contract is covered by ``test_daemon.py`` and
``test_resume.py``; here we pin the wall-clock plane the daemon grew
on top of it — the Prometheus ``metrics`` op, the ``flight`` recorder
op, per-job telemetry rollups, and the extended ``health`` payload.
"""

import asyncio
import errno
import socket as socket_module
import threading

import pytest

from repro.__main__ import main
from repro.engine.executor import multiprocessing_usable
from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.obs.runtime import validate_exposition
from repro.serve.checkpoint import read_result
from repro.serve.client import ServeClient
from repro.serve.daemon import CampaignService, ServeDaemon
from repro.serve.protocol import (
    decode_message,
    encode_message,
    parse_submission,
    submit_campaign_request,
)

needs_unix_sockets = pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"),
    reason="unix sockets unavailable on this platform")
needs_multiprocessing = pytest.mark.skipif(
    not multiprocessing_usable(),
    reason="multiprocessing unavailable in this environment")


@pytest.fixture
def live_daemon(tmp_path):
    """A serving daemon on a unix socket, torn down after the test."""
    service = CampaignService(tmp_path / "state", workers=2,
                              backend="serial", seed=5)
    service.recover()
    daemon = ServeDaemon(service, socket_path=tmp_path / "serve.sock")
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve_forever(ready)),
        daemon=True)
    thread.start()
    assert ready.wait(10)
    client = ServeClient(socket_path=daemon.socket_path)
    client.wait_until_ready()
    yield client, daemon, service
    try:
        client.shutdown()
    except ReproError:
        pass
    thread.join(15)
    assert not thread.is_alive()


def run_one_job(service, installs=20, seed=7):
    job = service.submit(parse_submission(submit_campaign_request(
        CampaignSpec(installs=installs, seed=seed))))
    service.execute(service.try_pop())
    return job


# -- wrongly typed submissions ---------------------------------------------

@needs_unix_sockets
@pytest.mark.parametrize("field, value, expected", [
    ("installs", "10", "installs must be an int, got str '10'"),
    ("defenses", "dapp", "defenses must be a list of names, got str 'dapp'"),
    ("watch_queue_depth", "8",
     "watch_queue_depth must be an int or None, got str '8'"),
])
def test_a_wrongly_typed_submit_gets_one_refusal(live_daemon, capfd, field,
                                                 value, expected):
    client, daemon, service = live_daemon
    capfd.readouterr()
    message = submit_campaign_request(CampaignSpec(installs=2, seed=7))
    message["spec"][field] = value
    with socket_module.socket(socket_module.AF_UNIX) as sock:
        sock.settimeout(10)
        sock.connect(str(daemon.socket_path))
        sock.sendall(encode_message(message))
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    replies = [decode_message(line) for line in received.splitlines()]
    assert len(replies) == 1
    assert replies[0]["ok"] is False
    assert replies[0]["error"] == expected
    assert client.health()["jobs_submitted"] == 0
    assert capfd.readouterr().err == ""


# -- metrics op -------------------------------------------------------------

@needs_unix_sockets
def test_metrics_op_returns_valid_exposition(live_daemon):
    client, _, _ = live_daemon
    job = client.submit_campaign(CampaignSpec(installs=20, seed=7))
    client.wait(job["job_id"], timeout=60)
    text = client.metrics()
    assert validate_exposition(text) > 0
    assert "repro_serve_jobs_completed_total 1" in text
    assert "repro_telemetry_cpu_seconds_total" in text
    assert "repro_serve_shard_wall_ms_bucket" in text
    assert f'job="{job["job_id"]}"' in text


def test_service_exposition_separates_service_and_job_scopes(tmp_path):
    service = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        first = run_one_job(service, seed=1)
        second = run_one_job(service, seed=2)
        text = service.prometheus()
        validate_exposition(text)
        assert 'scope="service"' in text
        for job in (first, second):
            assert (f'repro_telemetry_shards_total{{job="{job.job_id}"'
                    f',scope="job"}}') in text
    finally:
        service.close()


def test_a_fresh_service_exposes_what_health_reads(tmp_path):
    # A health call must not change the scrape: its seven serve/*
    # counters exist, at 0, from construction on.
    service = CampaignService(tmp_path, workers=1, backend="serial")

    def scrape():
        return [line for line in service.prometheus().splitlines()
                if "uptime_seconds" not in line]

    try:
        fresh = scrape()
        assert "repro_serve_jobs_cancelled_total 0" in fresh
        service.health()
        assert scrape() == fresh
    finally:
        service.close()


def test_exposition_reports_current_and_peak_queue_depth(tmp_path):
    service = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        run_one_job(service)
        text = service.prometheus()
        assert "repro_serve_queue_depth 0" in text       # live depth
        assert "repro_serve_queue_depth_peak 1" in text  # high-water
    finally:
        service.close()


@needs_multiprocessing
def test_every_retry_surface_reads_the_executor_count(tmp_path, capsys):
    service = CampaignService(tmp_path, workers=2, backend="process")
    try:
        job = service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=8, seed=3, chaos="error:1"), shards=2)))
        service.execute(service.try_pop())
        assert job.state == "done"
        # two pool re-queues (max_retries=2), then a serial rescue
        retries = job.counters["retries"]
        assert retries == 2
        assert job.counters["fallbacks"] == 1
        assert job.telemetry["retries"] == retries
        live = service.prometheus()
        scope = f'{{job="{job.job_id}",scope="job"}}'
        assert f"repro_telemetry_retries_total{scope} {retries}" in live
        assert (f'repro_telemetry_retries_total{{scope="service"}} '
                f"{retries}") in live
    finally:
        service.close()
    assert main(["metrics", "--job", job.job_id,
                 "--state-dir", str(tmp_path)]) == 0
    offline = capsys.readouterr().out
    assert f"repro_telemetry_retries_total{scope} {retries}" in offline


@needs_unix_sockets
def test_a_failure_before_the_run_fails_the_job_not_the_scheduler(
        live_daemon):
    client, _, service = live_daemon
    record = service.flight.record
    refused = []

    def refuse_first_start(kind, **fields):
        if kind == "start" and not refused:
            refused.append(fields["job"])
            raise OSError("flight sidecar refused the write")
        return record(kind, **fields)

    service.flight.record = refuse_first_start
    first = client.submit_campaign(CampaignSpec(installs=10, seed=1))
    failed = client.wait(first["job_id"], timeout=20)
    assert failed["state"] == "failed"
    assert "OSError" in failed["error"]
    second = client.submit_campaign(CampaignSpec(installs=10, seed=2))
    assert client.wait(second["job_id"], timeout=20)["state"] == "done"
    ends = [(entry["job_id"], entry["state"])
            for entry in service.store.read_journal()
            if entry.get("event") == "end"]
    assert ends == [(first["job_id"], "failed"), (second["job_id"], "done")]


@needs_unix_sockets
def test_a_failed_result_write_fails_the_job_not_the_scheduler(
        live_daemon):
    client, _, service = live_daemon
    write_result = service.store.write_result
    refused = []

    def disk_full_once(job_id, payload):
        if not refused:
            refused.append(job_id)
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_result(job_id, payload)

    service.store.write_result = disk_full_once
    first = client.submit_campaign(CampaignSpec(installs=10, seed=1))
    failed = client.wait(first["job_id"], timeout=20)
    assert failed["state"] == "failed"
    assert "No space left on device" in failed["error"]
    assert read_result(service.store.state_dir, first["job_id"]) is None
    second = client.submit_campaign(CampaignSpec(installs=10, seed=2))
    assert client.wait(second["job_id"], timeout=20)["state"] == "done"
    assert read_result(service.store.state_dir,
                       second["job_id"])["state"] == "done"
    ends = [(entry["job_id"], entry["state"])
            for entry in service.store.read_journal()
            if entry.get("event") == "end"]
    assert ends == [(first["job_id"], "failed"), (second["job_id"], "done")]


@needs_unix_sockets
def test_a_refused_end_record_still_fails_the_job_not_the_scheduler(
        live_daemon):
    client, _, service = live_daemon
    store = service.store
    write_result, append_journal = store.write_result, store.append_journal
    refused = []

    def disk_full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    def end_refused(record):
        if record.get("event") == "end" and not refused:
            refused.append(record["job_id"])
            disk_full()
        return append_journal(record)

    store.write_result, store.append_journal = disk_full, end_refused
    first = client.submit_campaign(CampaignSpec(installs=10, seed=1))
    frames = client.watch(first["job_id"], timeout=20)
    assert frames[-1]["event"] == "failed"
    assert "No space left on device" in frames[-1]["job"]["error"]
    assert refused == [first["job_id"]]
    store.write_result = write_result
    second = client.submit_campaign(CampaignSpec(installs=10, seed=2))
    assert client.wait(second["job_id"], timeout=20)["state"] == "done"
    assert client.health()["jobs_failed"] == 1
    assert [event["job"] for event in service.flight.events("crash")] == [
        first["job_id"]]
    (lost,) = service.flight.events("journal_error")
    assert lost["job"] == first["job_id"] and "OSError" in lost["error"]
    ends = [(entry["job_id"], entry["state"])
            for entry in store.read_journal()
            if entry.get("event") == "end"]
    assert ends == [(second["job_id"], "done")]


# -- flight op --------------------------------------------------------------

@needs_unix_sockets
def test_flight_op_streams_the_job_lifecycle(live_daemon):
    client, _, _ = live_daemon
    job = client.submit_campaign(CampaignSpec(installs=20, seed=7))
    client.wait(job["job_id"], timeout=60)
    flight = client.flight()
    kinds = [event["kind"] for event in flight["events"]]
    assert kinds[0] == "recover"  # service.recover() ran at startup
    for kind in ("submit", "schedule", "start", "checkpoint", "finish"):
        assert kind in kinds, (kind, kinds)
    submit = next(e for e in flight["events"] if e["kind"] == "submit")
    assert submit["job"] == job["job_id"]
    assert flight["dropped"] == 0


def test_flight_crash_event_carries_the_error(tmp_path):
    service = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=10, seed=1))))
        claimed = service.try_pop()

        def explode(*args, **kwargs):
            raise RuntimeError("worker pool caught fire")

        service.executor.run = explode
        service.execute(claimed)
        crashes = service.flight.events("crash")
        assert len(crashes) == 1
        assert "caught fire" in crashes[0]["error"]
    finally:
        service.close()


def test_flight_file_feeds_the_restarted_service(tmp_path):
    first = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        run_one_job(first)
    finally:
        first.close()
    second = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        second.recover()
        kinds = [e["kind"] for e in second.flight.events()]
        assert "finish" in kinds          # pre-restart history survived
        assert kinds[-1] == "recover"     # and the restart stamped its own
    finally:
        second.close()


# -- health extensions ------------------------------------------------------

def test_health_reports_states_pids_and_telemetry(tmp_path):
    service = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        run_one_job(service)
        service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=10, seed=3))))
        health = service.health()
        assert health["jobs_by_state"]["done"] == 1
        assert health["jobs_by_state"]["queued"] == 1
        assert health["worker_pids"] == {}  # serial backend: no pool
        assert health["telemetry"]["shards"] == 1
        assert health["uptime_s"] >= 0
    finally:
        service.close()


def test_job_wire_dict_carries_its_telemetry_rollup(tmp_path):
    service = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        job = run_one_job(service)
        wire = job.to_dict()
        assert wire["telemetry"]["shards"] == 1
        assert wire["telemetry"]["wall_ns"] > 0
        assert wire["telemetry"]["queue_wait_s"] >= 0.0
        # the stored result carries the same rollup for offline renders
        import json

        result = json.loads(service.store.result_path(job.job_id)
                            .read_text(encoding="utf-8"))
        assert result["telemetry"]["shards"] == 1
    finally:
        service.close()
