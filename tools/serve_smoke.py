#!/usr/bin/env python3
"""End-to-end smoke test of the campaign service (the CI gate).

Drives real ``repro serve`` daemon processes over their unix socket
and proves, in order:

1.  daemon start + health endpoint;
2.  campaign submission, live ``watch`` streaming, trace retrieval;
3.  fuzz-case submission through the same queue, and one refusal
    (``ok: false``, no daemon traceback) each for a wrongly typed
    submit and a request line past the daemon's 64 KiB limit;
4.  double-run byte identity — two jobs with the same spec archive
    byte-identical trace JSONL;
5.  ops surface: the ``metrics`` op's Prometheus exposition parses
    and carries the telemetry rollup families, and the ``flight`` op
    shows the whole job lifecycle;
6.  hard kill (``SIGKILL``, no goodbye) mid-campaign, then restart:
    the recovered daemon resumes the job from its shard checkpoint,
    the final stats and trace are identical to an uninterrupted
    in-process reference run, and the flight recorder still holds the
    pre-kill events plus the restart's ``recover``.

Everything is a subprocess, nothing is mocked; the whole script has a
hard deadline (default 110s) so CI can never wedge on it.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.engine import CampaignSpec, NullProgress, run_fleet  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.obs import write_trace_jsonl  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    encode_message,
    submit_campaign_request,
)

DEADLINE = time.monotonic() + float(os.environ.get("SMOKE_DEADLINE", "110"))


def remaining() -> float:
    left = DEADLINE - time.monotonic()
    if left <= 0:
        raise ReproError("serve smoke exceeded its deadline")
    return left


def say(message: str) -> None:
    print(f"smoke: {message}", flush=True)


def start_daemon(state_dir: pathlib.Path, workers: int = 2) -> subprocess.Popen:
    """Launch ``repro serve`` in its own process group; wait for health."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir),
         "--workers", str(workers), "--backend", "process"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,  # killpg must not hit this script
    )
    client = ServeClient(socket_path=state_dir / "serve.sock")
    client.wait_until_ready(timeout=min(30.0, remaining()))
    return process


def stop_daemon(process: subprocess.Popen,
                state_dir: pathlib.Path) -> None:
    """Graceful shutdown via the protocol; reap the subprocess."""
    ServeClient(socket_path=state_dir / "serve.sock").shutdown()
    process.wait(timeout=min(30.0, remaining()))
    if process.returncode != 0:
        raise ReproError(
            f"daemon exited {process.returncode} on graceful shutdown")


def exchange(state_dir: pathlib.Path, payload: bytes) -> list:
    """Send one raw request line; every reply the daemon sends back."""
    with socket.socket(socket.AF_UNIX) as sock:
        sock.settimeout(min(30.0, remaining()))
        sock.connect(str(state_dir / "serve.sock"))
        sock.sendall(payload)
        with sock.makefile("rb") as stream:
            return [json.loads(line) for line in stream]


def hard_kill(process: subprocess.Popen) -> None:
    """SIGKILL the daemon's whole process group — no cleanup runs."""
    os.killpg(os.getpgid(process.pid), signal.SIGKILL)
    process.wait(timeout=min(30.0, remaining()))


def main() -> int:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    spec = CampaignSpec(installs=300, seed=7, observe=True)

    # -- phase 1: daemon lifecycle + submission + streaming -------------------
    state_a = workdir / "state-a"
    daemon = start_daemon(state_a)
    client = ServeClient(socket_path=state_a / "serve.sock")
    health = client.health()
    assert health["ok"], health
    say(f"daemon up: workers={health['workers']} "
        f"backend={health['backend']}")

    job_one = client.submit_campaign(spec, shards=4, label="smoke-1")
    frames = client.watch(job_one["job_id"], timeout=remaining())
    shard_frames = [f for f in frames if f["event"] == "shard"]
    assert frames[-1]["event"] == "done", frames[-1]
    assert len(shard_frames) == 4, len(shard_frames)
    final = frames[-1]["job"]
    assert final["summary"]["runs"] == spec.installs, final["summary"]
    say(f"campaign {job_one['job_id']}: streamed "
        f"{len(shard_frames)} shard frame(s), "
        f"runs={final['summary']['runs']}")

    # fuzz case through the same queue
    from repro.fuzz.gen import generate_case

    case = generate_case(7, 3)
    fuzz_job = client.submit_fuzz(case, label="smoke-fuzz")
    fuzz_final = client.wait(fuzz_job["job_id"], timeout=remaining())
    assert fuzz_final["state"] == "done", fuzz_final
    say(f"fuzz case {fuzz_job['job_id']}: done "
        f"(seed={fuzz_final['spec']['seed']}, "
        f"shards={fuzz_final['shards']})")

    # a wrongly typed submit and an oversized line: one refusal each
    typed = submit_campaign_request(CampaignSpec(installs=2, seed=7))
    typed["spec"]["installs"] = True
    oversized = submit_campaign_request(spec, label="x" * 100_000)
    for message, expected in ((typed, "installs must be an int"),
                              (oversized, "byte limit")):
        replies = exchange(state_a, encode_message(message))
        assert len(replies) == 1, replies
        assert replies[0]["ok"] is False, replies
        assert expected in replies[0]["error"], replies
    say("wrongly typed submit and oversized line: one refusal each")

    # trace retrieval by job id
    info = client.trace_info(job_one["job_id"])
    assert info["exists"], info
    trace_one = pathlib.Path(info["path"]).read_bytes()
    assert trace_one, "archived trace is empty"

    # -- phase 2: double-run byte identity ------------------------------------
    job_two = client.submit_campaign(spec, shards=4, label="smoke-2")
    client.wait(job_two["job_id"], timeout=remaining())
    trace_two = pathlib.Path(
        client.trace_info(job_two["job_id"])["path"]).read_bytes()
    assert trace_one == trace_two, (
        "same spec, different archived trace bytes")
    say(f"double run: {len(trace_one)} trace bytes, byte-identical")

    health = client.health()
    assert health["jobs_completed"] == 3, health
    assert health["warm_pool"], health  # the pool stayed resident
    assert health["worker_pids"], health
    assert health["jobs_by_state"]["done"] == 3, health
    assert health["telemetry"]["shards"] >= 4, health

    # -- phase 2b: ops surface — metrics exposition + flight recorder ---------
    from repro.obs.runtime import validate_exposition

    exposition = client.metrics()
    samples = validate_exposition(exposition)
    for family in ("repro_serve_jobs_completed_total",
                   "repro_telemetry_shards_total",
                   "repro_telemetry_cpu_seconds_total",
                   "repro_telemetry_wall_seconds_total",
                   "repro_telemetry_max_rss_kilobytes",
                   "repro_serve_shard_wall_ms_bucket",
                   "repro_serve_uptime_seconds"):
        assert family in exposition, f"missing family {family}"
    say(f"metrics scrape: {samples} valid sample(s), telemetry "
        f"rollups present")

    flight = client.flight()
    kinds = [event["kind"] for event in flight["events"]]
    for kind in ("recover", "submit", "schedule", "start",
                 "checkpoint", "finish"):
        assert kind in kinds, (kind, kinds)
    assert flight["recorded"] == len(kinds), flight["recorded"]
    say(f"flight recorder: {flight['recorded']} event(s), "
        f"kinds cover the job lifecycle")

    stop_daemon(daemon, state_a)
    output = daemon.stdout.read().decode("utf-8", errors="replace")
    for marker in ("Traceback", "Unhandled exception"):
        assert marker not in output, output
    say("graceful shutdown clean, no traceback in the daemon's output")

    # -- phase 3: hard kill mid-campaign, restart, resume ---------------------
    state_b = workdir / "state-b"
    big = CampaignSpec(installs=12000, seed=7, observe=True)
    daemon = start_daemon(state_b)
    client = ServeClient(socket_path=state_b / "serve.sock")
    victim = client.submit_campaign(big, shards=8, label="victim")
    while True:
        done, _total = client.status(victim["job_id"])["progress"]
        if done >= 2:
            break
        remaining()
        time.sleep(0.02)
    hard_kill(daemon)
    say(f"hard-killed the daemon after {done} shard(s) of 8")

    daemon = start_daemon(state_b)
    client = ServeClient(socket_path=state_b / "serve.sock")
    assert client.health()["jobs_recovered"] == 1, client.health()

    # The file-backed flight ring survived the SIGKILL: the pre-kill
    # lifecycle events are still there, and the restart appended its
    # own ``recover`` after them.
    events = client.flight()["events"]
    kinds = [event["kind"] for event in events]
    assert "submit" in kinds, kinds
    assert "start" in kinds, kinds
    last_recover = max(i for i, k in enumerate(kinds) if k == "recover")
    assert last_recover > kinds.index("submit"), kinds
    say(f"flight survived SIGKILL: {len(kinds)} event(s), "
        f"recover recorded after the pre-kill lifecycle")

    resumed = client.wait(victim["job_id"], timeout=remaining())
    assert resumed["state"] == "done", resumed
    restored = resumed["counters"].get("restored", 0)
    assert restored >= 2, resumed["counters"]

    reference = run_fleet(big, shards=8, backend="serial",
                          progress=NullProgress())
    from repro.serve.protocol import stats_counters

    assert resumed["summary"] == stats_counters(reference.stats), (
        "resumed stats differ from the uninterrupted reference")
    reference_trace = workdir / "reference.jsonl"
    write_trace_jsonl(str(reference_trace), reference.trace_records())
    resumed_trace = pathlib.Path(
        client.trace_info(victim["job_id"])["path"]).read_bytes()
    assert resumed_trace == reference_trace.read_bytes(), (
        "resumed trace differs from the uninterrupted reference")
    say(f"kill/resume: {restored} shard(s) restored, stats bit-identical, "
        f"trace byte-identical ({len(resumed_trace)} bytes)")

    stop_daemon(daemon, state_b)
    say(f"all phases green with {DEADLINE - time.monotonic():.0f}s to spare")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as error:
        print(f"smoke: FAIL: {error}", file=sys.stderr)
        sys.exit(1)
