"""Daemon + client integration over a real unix socket."""

import asyncio
import errno
import socket as socket_module
import threading

import pytest

from repro.engine import run_fleet
from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.fuzz.gen import generate_case
from repro.serve.client import ServeClient
from repro.serve.daemon import CampaignService, ServeDaemon
from repro.serve.protocol import (
    parse_submission,
    stats_counters,
    submit_campaign_request,
)

needs_unix_sockets = pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"),
    reason="unix sockets unavailable on this platform")


@pytest.fixture
def live_daemon(tmp_path):
    """A serving daemon on a unix socket, torn down after the test.

    Serial backend: the scheduler/protocol behaviour under test is
    identical, and the suite stays runnable where multiprocessing is
    not.
    """
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
        pass  # test already shut it down
    thread.join(15)
    assert not thread.is_alive()


@needs_unix_sockets
def test_submit_watch_and_status_over_the_socket(live_daemon):
    client, _, _ = live_daemon
    spec = CampaignSpec(installs=40, seed=7, observe=True)
    job = client.submit_campaign(spec, shards=4, label="wire")
    assert job["job_id"] == "job-000001"
    frames = client.watch(job["job_id"], timeout=60)
    events = [frame["event"] for frame in frames]
    assert events[0] == "status"
    assert events[-1] == "done"
    assert events.count("shard") == 4
    # incremental merged stats grow monotonically to the final count
    runs = [frame["stats"]["runs"] for frame in frames
            if frame["event"] == "shard"]
    assert runs == sorted(runs)
    assert runs[-1] == 40
    final = client.status(job["job_id"])
    assert final["state"] == "done"
    assert final["summary"]["runs"] == 40
    assert final["progress"] == [4, 4]


@needs_unix_sockets
def test_watching_a_finished_job_replays_its_terminal(live_daemon):
    client, _, _ = live_daemon
    job = client.submit_campaign(CampaignSpec(installs=10, seed=7))
    client.wait(job["job_id"], timeout=60)
    frames = client.watch(job["job_id"], timeout=10)
    assert [frame["event"] for frame in frames] == ["status", "done"]


@needs_unix_sockets
def test_fuzz_submission_runs_like_any_job(live_daemon):
    client, _, service = live_daemon
    case = generate_case(99, 1)
    job = client.submit_fuzz(case, label="fuzz")
    final = client.wait(job["job_id"], timeout=60)
    assert final["kind"] == "fuzz"
    assert final["state"] == "done"
    assert final["spec"]["seed"] == case.campaign_spec(observe=True).seed
    # fuzz jobs are observed, so their trace is archived
    info = client.trace_info(job["job_id"])
    assert info["exists"] is True


@needs_unix_sockets
def test_jobs_listing_and_health_counters(live_daemon):
    client, _, _ = live_daemon
    job = client.submit_campaign(CampaignSpec(installs=10, seed=7))
    client.wait(job["job_id"], timeout=60)
    listing = client.jobs()
    assert [j["job_id"] for j in listing["jobs"]] == [job["job_id"]]
    health = listing["health"]
    assert health["ok"] is True
    assert health["jobs_submitted"] == 1
    assert health["jobs_completed"] == 1
    assert health["jobs_failed"] == 0
    assert health["queue_depth"] == 0


@needs_unix_sockets
def test_unknown_job_and_bad_requests_return_errors(live_daemon):
    client, daemon, _ = live_daemon
    with pytest.raises(ReproError, match="unknown job"):
        client.status("job-424242")
    with pytest.raises(ReproError, match="unknown job"):
        client.watch("job-424242")
    # a raw connection speaking the wrong version is refused, not hung
    import json
    import socket

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(10)
        raw.connect(daemon.socket_path)
        raw.sendall(b'{"v": 999, "op": "health"}\n')
        reply = json.loads(raw.makefile("rb").readline())
    assert reply["ok"] is False
    assert "version mismatch" in reply["error"]


@needs_unix_sockets
def test_shutdown_finishes_the_daemon_and_removes_the_socket(tmp_path):
    import os

    service = CampaignService(tmp_path / "state", workers=1,
                              backend="serial")
    daemon = ServeDaemon(service, socket_path=tmp_path / "serve.sock")
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve_forever(ready)),
        daemon=True)
    thread.start()
    assert ready.wait(10)
    client = ServeClient(socket_path=daemon.socket_path)
    client.wait_until_ready()
    client.shutdown()
    thread.join(15)
    assert not thread.is_alive()
    assert not os.path.exists(daemon.socket_path)
    with pytest.raises(ReproError, match="cannot reach"):
        client.health()


def test_service_cancel_skips_the_job_and_journals_it(tmp_path):
    service = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        first = service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=10, seed=1))))
        second = service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=10, seed=2))))
        cancelled = service.cancel(second.job_id)
        assert cancelled.state == "cancelled"
        assert service.try_pop() is first
        assert service.try_pop() is None
        events = [(r["event"], r.get("state"))
                  for r in service.store.read_journal()]
        assert ("end", "cancelled") in events
    finally:
        service.close()


def test_service_reports_a_failing_job_without_dying(tmp_path):
    service = CampaignService(tmp_path, workers=1, backend="serial")
    try:
        job = service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=10, seed=1))))
        claimed = service.try_pop()

        def explode(*args, **kwargs):
            raise RuntimeError("worker pool caught fire")

        service.executor.run = explode  # sabotage the engine
        service.execute(claimed)
        assert claimed.state == "failed"
        assert claimed.error
        health = service.health()
        assert health["jobs_failed"] == 1
        final = service.get_job(job.job_id)
        assert final.terminal
    finally:
        service.close()


def test_derived_seeds_survive_recovery(tmp_path):
    spec = CampaignSpec(installs=10)
    message = submit_campaign_request(spec, derive_seed=True)
    first = CampaignService(tmp_path, workers=1, backend="serial", seed=21)
    job = first.submit(parse_submission(message))
    derived = job.spec.seed
    assert derived != spec.seed
    first.close()
    # a recovered daemon must not re-derive (journal holds the real seed)
    second = CampaignService(tmp_path, workers=1, backend="serial",
                             seed=9999)  # different service seed on purpose
    try:
        assert second.recover() == 1
        assert second.get_job(job.job_id).spec.seed == derived
    finally:
        second.close()


def test_done_jobs_leave_no_checkpoint_and_survive_restart(tmp_path):
    state = tmp_path / "state"
    service = CampaignService(state, workers=1, backend="serial")
    at_done = {}
    try:
        jobs = [service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=8, seed=seed), shards=2)))
            for seed in (1, 2, 3)]

        def listener(frame):
            if frame.get("event") == "done":
                job_id = frame["job"]["job_id"]
                at_done[job_id] = service.store.checkpoint_dir(
                    job_id).exists()

        for job in jobs:
            service.subscribe(job.job_id, listener)
        while (claimed := service.try_pop()) is not None:
            service.execute(claimed)
        assert [job.state for job in jobs] == ["done"] * 3
        # the journal was still there when each done frame went out
        assert at_done == {job.job_id: True for job in jobs}
        assert not list(state.glob("jobs/*/checkpoint"))
        assert all(service.store.result_path(job.job_id).exists()
                   for job in jobs)
    finally:
        service.close()
    restarted = CampaignService(state, workers=1, backend="serial")
    try:
        assert restarted.recover() == 0
        for job in jobs:
            again = restarted.get_job(job.job_id)
            assert again.state == "done"
            assert again.summary == job.summary
    finally:
        restarted.close()


def _disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_jobs_leave_no_checkpoint_and_stay_failed(tmp_path):
    state = tmp_path / "state"
    service = CampaignService(state, workers=1, backend="serial")
    at_failed = []
    try:
        job = service.submit(parse_submission(submit_campaign_request(
            CampaignSpec(installs=8, seed=1), shards=2)))

        def listener(frame):
            if frame.get("event") == "failed":
                at_failed.append(
                    service.store.checkpoint_dir(job.job_id).exists())

        service.subscribe(job.job_id, listener)
        service.store.write_result = _disk_full
        service.execute(service.try_pop())
        assert job.state == "failed"
        assert "No space left on device" in job.error
        # the journal was still there when the failed frame went out
        assert at_failed == [True]
        assert not list(state.glob("jobs/*/checkpoint"))
    finally:
        service.close()
    restarted = CampaignService(state, workers=1, backend="serial")
    try:
        assert restarted.recover() == 0
        assert restarted.get_job(job.job_id).state == "failed"
        assert restarted.try_pop() is None
    finally:
        restarted.close()


def test_a_failed_job_without_an_end_record_resumes_after_restart(
        tmp_path):
    spec = CampaignSpec(installs=8, seed=1)
    state = tmp_path / "state"
    service = CampaignService(state, workers=1, backend="serial")
    try:
        job = service.submit(parse_submission(submit_campaign_request(
            spec, shards=2)))
        append_journal = service.store.append_journal

        def end_refused(record):
            if record.get("event") == "end":
                _disk_full()
            append_journal(record)

        service.store.write_result = _disk_full
        service.store.append_journal = end_refused
        service.execute(service.try_pop())
        assert job.state == "failed"
        # no durable end record: the journal stays for the restart
        assert service.store.checkpoint_dir(job.job_id).exists()
    finally:
        service.close()
    restarted = CampaignService(state, workers=1, backend="serial")
    try:
        assert restarted.recover() == 1
        claimed = restarted.try_pop()
        assert claimed.job_id == job.job_id
        restarted.execute(claimed)
        assert claimed.state == "done"
        assert claimed.counters["restored"] == 2  # resumed, not re-run
        assert claimed.summary == stats_counters(
            run_fleet(spec, shards=2, backend="serial").stats)
        assert not list(state.glob("jobs/*/checkpoint"))
    finally:
        restarted.close()
