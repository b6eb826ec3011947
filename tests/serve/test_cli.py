"""CLI verbs: serve/submit/jobs/watch/metrics/top, fleet --checkpoint,
trace --job, and the fleet/analyze telemetry flags."""

import re
import threading

import pytest

from repro.__main__ import main
from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.daemon import run_daemon


@pytest.fixture
def cli_daemon(tmp_path):
    """A daemon run exactly as ``repro serve`` runs it, plus its args."""
    state_dir = tmp_path / "state"
    holder = {}
    ready = threading.Event()

    def on_ready(daemon):
        holder["daemon"] = daemon
        ready.set()

    thread = threading.Thread(
        target=lambda: run_daemon(str(state_dir), workers=1,
                                  backend="serial", seed=7,
                                  on_ready=on_ready),
        daemon=True)
    thread.start()
    assert ready.wait(10)
    args = ["--state-dir", str(state_dir)]
    yield args, state_dir
    try:
        ServeClient(
            socket_path=holder["daemon"].socket_path).shutdown()
    except Exception:
        pass
    thread.join(15)
    assert not thread.is_alive()


def test_submit_wait_jobs_watch_and_trace_by_job(cli_daemon, capsys):
    args, _ = cli_daemon
    assert main(["submit", *args, "--installs", "30", "--seed", "7",
                 "--shards", "3", "--label", "cli", "--wait"]) == 0
    out = capsys.readouterr().out
    assert "submitted job-000001" in out
    assert out.count("shard") >= 3
    assert "job-000001: done" in out
    assert "runs               : 30" in out

    assert main(["jobs", *args]) == 0
    out = capsys.readouterr().out
    assert "job-000001  done" in out
    assert "[cli]" in out
    assert "completed=1" in out

    assert main(["watch", "job-000001", *args]) == 0
    out = capsys.readouterr().out
    assert "job-000001: done" in out

    # forensics straight off the job id, no file paths involved
    assert main(["trace", "summary", "--job", "job-000001", *args]) == 0
    out = capsys.readouterr().out
    assert "span" in out

    assert main(["serve", *args, "--stop"]) == 0
    assert "shutdown requested" in capsys.readouterr().out


def test_a_second_daemon_on_a_held_state_dir_touches_nothing(
        cli_daemon, tmp_path):
    args, state_dir = cli_daemon
    staged = state_dir / "jobs" / "job-000009" / ".tmp-live"
    staged.parent.mkdir(parents=True)
    staged.write_bytes(b"a live daemon's staged write")
    with pytest.raises(ReproError, match="in use by another daemon"):
        run_daemon(str(state_dir), socket_path=str(tmp_path / "two.sock"),
                   workers=1, backend="serial",
                   on_ready=lambda daemon: daemon.stop())
    assert staged.exists()  # not swept from under the live daemon
    assert main(["jobs", *args]) == 0  # the first daemon still serves


def test_submit_without_a_daemon_fails_cleanly(tmp_path, capsys):
    code = main(["submit", "--state-dir", str(tmp_path / "nowhere"),
                 "--installs", "5"])
    assert code == 2
    assert "cannot reach the serve daemon" in capsys.readouterr().err


def test_fleet_checkpoint_requires_explicit_shards(tmp_path, capsys):
    code = main(["fleet", "--installs", "10", "--quiet",
                 "--checkpoint", str(tmp_path / "ckpt")])
    assert code == 2
    assert "explicit --shards" in capsys.readouterr().err


def test_fleet_checkpoint_resumes_from_the_journal(tmp_path, capsys):
    ckpt = str(tmp_path / "ckpt")
    base = ["fleet", "--installs", "40", "--seed", "7", "--shards", "4",
            "--backend", "serial", "--quiet", "--checkpoint", ckpt]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert "resumed" not in first
    assert main(base) == 0
    second = capsys.readouterr().out
    assert "resumed    : 4 shard(s) restored from checkpoint" in second
    # the resumed run reports the same merged counts
    count_lines = lambda text: [line for line in text.splitlines()
                                if "completed  :" in line or
                                "hijacked   :" in line]
    assert count_lines(first) == count_lines(second)


def test_metrics_and_top_over_a_live_daemon(cli_daemon, capsys):
    from repro.obs.runtime import validate_exposition

    args, state_dir = cli_daemon
    assert main(["submit", *args, "--installs", "20", "--seed", "7",
                 "--shards", "2", "--wait"]) == 0
    capsys.readouterr()

    assert main(["metrics", "--serve", *args]) == 0
    captured = capsys.readouterr()
    assert validate_exposition(captured.out) > 0
    assert "repro_serve_jobs_completed_total 1" in captured.out
    assert "repro_telemetry_cpu_seconds_total" in captured.out
    assert "valid sample(s)" in captured.err

    # offline render from the stored result, no daemon round trip
    assert main(["metrics", "--job", "job-000001", *args]) == 0
    out = capsys.readouterr().out
    assert 'repro_telemetry_shards_total{job="job-000001"' in out

    assert main(["top", *args, "--iterations", "1",
                 "--interval", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "repro top — frame 1" in out
    assert "job-000001  done" in out
    assert "jobs by state: queued=0 running=0 done=1" in out

    assert main(["jobs", *args]) == 0
    out = capsys.readouterr().out
    assert "jobs by state:" in out
    assert "telemetry    : cpu" in out


def test_serve_refuses_a_jobs_log_from_an_older_journal_version(
        tmp_path, capsys, monkeypatch):
    from repro.engine.spec import CampaignSpec
    from repro.serve.checkpoint import JOURNAL_VERSION, JobStore
    from repro.serve.daemon import ServeDaemon

    def serve_forever(self, ready):
        raise AssertionError("the daemon accepted the old jobs.log")

    # Fail, rather than serve forever, if recovery lets the log through.
    monkeypatch.setattr(ServeDaemon, "serve_forever", serve_forever)

    state_dir = tmp_path / "state"
    # A submit record as journal version 4 wrote it: its spec still
    # carries the since-deleted keep_outcomes field.
    spec = dict(CampaignSpec(installs=4).to_json_dict(), keep_outcomes=None)
    JobStore(state_dir).append_journal({
        "event": "submit", "job_id": "job-000001", "seq": 1,
        "kind": "campaign", "label": "", "priority": 0, "shards": None,
        "spec": spec,
    })
    code = main(["serve", "--state-dir", str(state_dir),
                 "--backend", "serial"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "jobs.log" in err
    assert f"journal version {JOURNAL_VERSION}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec_edit, record_edit, expected", [
    ({"seed": "x"}, {}, "seed must be an int, got str 'x'"),
    ({}, {"priority": "x"}, "priority must be an int, got str 'x'"),
])
def test_serve_refuses_a_jobs_log_spec_this_build_refuses(
        tmp_path, capsys, monkeypatch, spec_edit, record_edit, expected):
    from repro.engine.spec import CampaignSpec
    from repro.serve.checkpoint import JobStore
    from repro.serve.daemon import ServeDaemon

    def serve_forever(self, ready):
        raise AssertionError("the daemon accepted the refused record")

    monkeypatch.setattr(ServeDaemon, "serve_forever", serve_forever)

    state_dir = tmp_path / "state"
    # A submit record a build without the field type check accepted.
    spec = dict(CampaignSpec(installs=4).to_json_dict(), **spec_edit)
    JobStore(state_dir).append_journal(dict({
        "event": "submit", "job_id": "job-000001", "seq": 1,
        "kind": "campaign", "label": "", "priority": 0, "shards": None,
        "spec": spec,
    }, **record_edit))
    code = main(["serve", "--state-dir", str(state_dir),
                 "--backend", "serial"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "jobs.log" in err
    assert "job-000001" in err
    assert expected in err
    assert "Traceback" not in err


def test_metrics_for_an_unknown_job_explains_itself(tmp_path, capsys):
    code = main(["metrics", "--job", "job-000009",
                 "--state-dir", str(tmp_path)])
    assert code == 2
    assert "no stored result" in capsys.readouterr().err


def test_fleet_telemetry_flag_reports_beside_the_stats(capsys):
    # no flag any more: every fleet run prints its telemetry line
    args = ["fleet", "--installs", "20", "--seed", "7", "--shards", "2",
            "--backend", "serial", "--quiet"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    for out in (first, second):
        assert "telemetry  : cpu" in out
        assert "over 2 shard(s)" in out
    # the deterministic stats block is unchanged by the sampling
    stats = lambda text: [line for line in text.splitlines()
                          if "installed  :" in line or
                          "hijacked   :" in line]
    assert stats(first) == stats(second)
    assert stats(first)


def test_profile_shards_writes_the_hotspot_table(tmp_path, capsys):
    out_path = tmp_path / "HOTSPOTS_fleet.txt"
    assert main(["fleet", "--installs", "20", "--seed", "7",
                 "--shards", "2", "--backend", "serial", "--quiet",
                 "--profile-shards", "--profile-out",
                 str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "2 shard profile(s)" in captured.err
    text = out_path.read_text(encoding="utf-8")
    assert "merged shard profile" in text
    assert re.search(r"spec\.py:\d+\(execute\)", text)


def test_analyze_telemetry_goes_to_stderr_only(capsys):
    args = ["analyze", "--corpus", "play", "--apps", "400",
            "--shards", "2", "--backend", "serial", "--quiet"]
    assert main(args) == 0
    first = capsys.readouterr()
    assert main(args) == 0
    second = capsys.readouterr()
    # stdout is the CI-compared deterministic surface: byte-identical
    assert first.out == second.out
    assert "telemetry" not in first.out
    assert "telemetry: cpu" in first.err


def test_trace_commands_need_a_source(capsys):
    assert main(["trace", "summary"]) == 2
    assert "--trace PATH or --job ID" in capsys.readouterr().err


def test_trace_by_unknown_job_explains_itself(tmp_path, capsys):
    code = main(["trace", "summary", "--job", "job-000009",
                 "--state-dir", str(tmp_path)])
    assert code == 2
    assert "no archived trace" in capsys.readouterr().err
