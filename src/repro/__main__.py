"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``demo``     — run the quickstart hijack + defense story.
- ``attack``   — run one attack against one installer
  (``--installer amazon --attack fileobserver --defense fuse-dac``).
- ``tables``   — regenerate the Section IV measurement tables.
- ``audit``    — audit every bundled installer profile against the
  paper's developer suggestions.
- ``fleet``    — run a sharded campaign across a worker pool
  (``--installs 10000 --workers 4``).
- ``analyze``  — run the sharded measurement study over a streaming
  corpus (``--corpus play --apps 100000 --shards 16 --workers 4
  --cache .analysis-cache``); stdout is deterministic for any
  shard/worker split.
- ``trace``    — forensics over a recorded JSONL trace:
  ``trace summary``, ``trace critpath``, ``trace windows``,
  ``trace diff`` (``python -m repro trace windows --trace t.jsonl``).
- ``fuzz``     — seeded scenario fuzzing under invariant oracles
  (``--seed 7 --budget 200``); failures shrink into the regression
  corpus at ``tests/fuzz/corpus/``.
- ``serve``    — run the resident campaign service (warm worker pool,
  crash-safe job journal): ``repro serve --state-dir .repro-serve``.
- ``submit``   — enqueue a campaign (or ``--case`` fuzz case) on a
  running daemon; ``--wait`` streams progress until it finishes.
- ``jobs``     — list the daemon's jobs and health counters (``top``
  is the live, re-rendering view).
- ``watch``    — stream one job's shard-completion frames live.
- ``metrics``  — Prometheus text exposition: scrape a running daemon
  (``repro metrics --serve``) or render a finished job's stored
  telemetry offline (``repro metrics --job ID``).
- ``top``      — live ops view over the daemon: health, queue depth,
  per-job shard rates and ETAs, refreshed every ``--interval``.

``fleet`` and ``analyze`` always report per-shard wall-clock CPU/RSS
telemetry beside the deterministic output (``analyze`` on stderr), and
accept ``--profile-shards`` (cProfile per shard, merged into one
hotspot table under ``benchmarks/results/``).

Every simulation command accepts ``--seed`` for reproducible runs; the
``trace`` family is a pure function of its input files, so its output
is byte-identical for identical traces.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.attacks.base import fingerprint_for
from repro.core.scenario import VALID_DEFENSES, Scenario
from repro.engine.executor import BACKENDS
from repro.engine.spec import ATTACKS, DEVICES, parse_chaos
from repro.installers import all_installer_types, installer_by_name

DEFAULT_SEED = 7

#: Where ``serve``/``submit``/``jobs``/``watch`` keep daemon state
#: unless pointed elsewhere.
DEFAULT_STATE_DIR = ".repro-serve"


def _seed_of(args: argparse.Namespace) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _obs_of(args: argparse.Namespace):
    """(recorder, metrics) sinks for an in-process command, or Nones.

    ``--metrics`` records a trace too, as ``observe`` does on the
    sharded path: most metrics are folded from the trace records.
    """
    from repro.obs import MetricsRegistry, TraceRecorder

    recorder = TraceRecorder() if args.trace or args.metrics else None
    metrics = MetricsRegistry() if args.metrics else None
    return recorder, metrics


def _emit_obs(args: argparse.Namespace, recorder=None, metrics=None) -> None:
    """Export the trace/metrics the user asked for.

    ``recorder``/``metrics`` may be None (observability off, or a
    command with nothing to record — the export is then valid but
    empty, so downstream tooling can rely on the flags always
    producing well-formed output).  The trace file is written only
    for ``--trace``.
    """
    from repro.obs import fold_metrics, render_metrics, write_trace_jsonl

    records = recorder.records() if recorder is not None else []
    if args.trace:
        count = write_trace_jsonl(args.trace, records)
        print(f"trace: {count} record(s) -> {args.trace}", file=sys.stderr)
    if args.metrics:
        print(render_metrics(fold_metrics(metrics, records)))


def _run_demo_inline(args: argparse.Namespace) -> int:
    from repro.attacks.toctou import FileObserverHijacker

    seed = _seed_of(args)
    recorder, metrics = _obs_of(args)
    for defenses in ((), ("fuse-dac",)):
        scenario = Scenario.build(
            installer=installer_by_name("amazon"),
            attacker_factory=lambda s: FileObserverHijacker(
                fingerprint_for(installer_by_name("amazon"))
            ),
            defenses=defenses,
            seed=seed,
            recorder=recorder,
            metrics=metrics,
        )
        scenario.publish_app("com.bank.app", label="MyBank")
        outcome = scenario.run_install("com.bank.app")
        label = "defended" if defenses else "undefended"
        print(f"[{label}] hijacked={outcome.hijacked} "
              f"signer={outcome.installed_certificate_owner}")
    _emit_obs(args, recorder, metrics)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    installer_cls = installer_by_name(args.installer)
    attacker_cls = ATTACKS[args.attack]
    factory = None
    if attacker_cls is not None:
        factory = lambda s: attacker_cls(fingerprint_for(installer_cls))
    recorder, metrics = _obs_of(args)
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=factory,
        defenses=tuple(args.defense),
        seed=_seed_of(args),
        recorder=recorder,
        metrics=metrics,
    )
    scenario.publish_app(args.package, label="Target App")
    outcome = scenario.run_install(args.package)
    print(outcome.trace.describe())
    print(f"installed : {outcome.installed}")
    print(f"hijacked  : {outcome.hijacked}")
    if outcome.error:
        print(f"error     : {outcome.error}")
    for report in scenario.defense_reports():
        for alarm in report.alarms:
            print(f"[{report.defense_name}] ALARM: {alarm}")
        for blocked in report.blocked_operations:
            print(f"[{report.defense_name}] BLOCKED: {blocked}")
    _emit_obs(args, recorder, metrics)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis import platform_keys
    from repro.measurement import report, tables

    # The corpora, the fleet and the store catalogs ship calibrated at
    # seed 2016; --seed overrides it for every table, for sensitivity
    # runs.
    seed = 2016 if args.seed is None else args.seed
    play = tables.corpus_stats("play", seed)
    preinstalled = tables.corpus_stats("preinstalled", seed)
    images = tables.corpus_stats("images", seed)
    catalogs = platform_keys.generate_appstore_catalogs(seed)
    print("\n\n".join([
        report.render_installer_breakdown("Table II (Google Play apps)",
                                          tables.build_table2(play)),
        report.render_installer_breakdown("Table III (pre-installed apps)",
                                          tables.build_table3(preinstalled)),
        report.render_table4(tables.build_table4(play)),
        report.render_table5(tables.build_table5(images)),
        report.render_table6(tables.build_table6(images)),
        report.render_hare(tables.build_hare(images)),
        report.render_platform_keys(
            tables.build_platform_keys(images, catalogs)),
    ]))
    # The tables are computed from static corpora, not simulator runs,
    # so there is nothing to trace; honour the flags with valid empty
    # output rather than surprising the caller.
    _emit_obs(args)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.toolkit.auditor import audit_profile
    from repro.toolkit.secure_installer import ToolkitInstaller

    targets = dict(all_installer_types())
    targets["toolkit"] = ToolkitInstaller
    for name in sorted(targets):
        findings = audit_profile(targets[name].profile)
        print(f"{name} ({targets[name].profile.package})")
        if not findings:
            print("  clean")
        for finding in findings:
            print(f"  {finding}")
            print(f"      {finding.detail}")
        print()
    # Static audit, no simulator: valid empty observability output.
    _emit_obs(args)
    return 0


def _run_sharded(args: argparse.Namespace, spec, command: str, title: str,
                 notes=None, **engine) -> int:
    """Run ``spec`` on the engine and emit the command's outputs.

    The engine flags of :func:`_add_engine_flags` apply, plus the
    command's own ``engine`` keywords for ``run_fleet``.  Stdout
    carries only the report's deterministic table and, with
    ``--metrics``, the metrics tables; ``notes(report)`` adds the
    command's own stderr lines before the shard-profile hotspot table
    and the trace export.
    """
    from repro.engine import ConsoleProgress, NullProgress, run_fleet
    from repro.obs import render_metrics, write_trace_jsonl

    progress = NullProgress() if args.quiet else ConsoleProgress()
    report = run_fleet(spec, shards=args.shards, workers=args.workers,
                       backend=args.backend, progress=progress,
                       profile_shards=args.profile_shards, **engine)
    print(report.render())
    if notes is not None:
        notes(report)
    if args.profile_shards:
        from pathlib import Path

        from repro.obs.runtime import write_hotspots

        blobs = [shard.profile for shard in report.shards if shard.profile]
        out = args.profile_out or str(
            Path("benchmarks") / "results" / f"HOTSPOTS_{command}.txt")
        path = write_hotspots(out, blobs)
        print(f"profile: {len(blobs)} shard profile(s) -> {path}",
              file=sys.stderr)
    if args.trace:
        count = write_trace_jsonl(args.trace, report.trace_records())
        print(f"trace: {count} record(s) -> {args.trace}", file=sys.stderr)
    if args.metrics:
        print(render_metrics(report.metrics, title=f"{title} metrics"))
        print(report.render_engine())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.engine import CampaignSpec

    spec = CampaignSpec(
        installs=args.installs,
        installer=args.installer,
        attack=args.attack,
        defenses=tuple(args.defense),
        device=args.device,
        seed=_seed_of(args),
        chaos=args.chaos,
        observe=bool(args.trace or args.metrics),
        watch_queue_depth=args.watch_depth,
        watch_drain_interval_ns=args.watch_drain_ns,
        watch_coalesce=args.watch_coalesce,
    )
    checkpoint = None
    if args.checkpoint:
        from repro.errors import ReproError
        from repro.serve.checkpoint import ShardJournal

        if args.shards is None:
            # The default shard count tracks the worker count, which
            # varies by machine; a resumable run must pin its layout.
            raise ReproError(
                "--checkpoint needs an explicit --shards count so the "
                "journal's shard layout is stable across resumes")
        checkpoint = ShardJournal(args.checkpoint, spec, args.shards)
    return _run_sharded(args, spec, "fleet", "fleet",
                        shard_timeout=args.shard_timeout,
                        max_retries=args.retries, checkpoint=checkpoint)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.pipeline import AnalysisSpec
    from repro.errors import ReproError

    if parse_chaos(args.chaos)[0] == "hang":
        # A hung worker is only reaped by a shard timeout, which
        # analyze does not offer: the run would wait for the hang.
        raise ReproError(
            f"--chaos {args.chaos!r}: analyze has no --shard-timeout, so "
            "a hung shard would never be reaped; use crash: or error:")
    spec = AnalysisSpec(
        corpus=args.corpus,
        apps=args.apps,
        # The corpora are calibrated at their own default seed (2016),
        # unlike the simulator commands' seed 7.
        seed=2016 if args.seed is None else args.seed,
        observe=bool(args.trace or args.metrics),
        chaos=args.chaos,
        cache_dir=args.cache,
    )

    def notes(report) -> None:
        # Wall-clock, telemetry and cache-state lines stay off stdout,
        # which CI byte-compares across shard/worker splits.
        print(f"wall: {report.wall_seconds:.2f}s "
              f"({report.throughput:.0f}/s, workers={report.workers}, "
              f"backend={report.backend})", file=sys.stderr)
        from repro.obs.runtime import TelemetryRollup

        print("telemetry: "
              + TelemetryRollup.from_dict(report.telemetry).render(),
              file=sys.stderr)
        if args.cache:
            print(f"cache: {report.cache_hits} hit(s), "
                  f"{report.cache_misses} analyzed", file=sys.stderr)

    return _run_sharded(args, spec, "analyze", "analysis", notes)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import Fuzzer, default_corpus_dir
    from repro.obs import NULL_RECORDER

    if args.replay:
        return _replay_corpus_files(args)
    recorder, metrics = _obs_of(args)
    corpus_dir = None if args.no_corpus else (
        args.corpus or default_corpus_dir())
    fuzzer = Fuzzer(
        fuzz_seed=_seed_of(args),
        oracles=tuple(args.oracle),
        backend=args.backend,
        workers=args.workers,
        force_shards=args.shards,
        sabotage_defense=args.break_defense,
        strict_lossy=args.strict_lossy,
        corpus_dir=corpus_dir,
        recorder=recorder if recorder is not None else NULL_RECORDER,
        metrics=metrics,
    )
    report = fuzzer.run(args.budget)
    print(report.render())
    _emit_obs(args, recorder, metrics)
    return 0 if report.ok else 1


def _replay_corpus_files(args: argparse.Namespace) -> int:
    """Replay explicit corpus entry files against their expectations.

    Exit 0 iff every entry meets its recorded ``expect``; each entry's
    recorded ``strict_lossy``/``sabotage`` knobs govern its judging
    (the CLI flags do not override them).
    """
    import json
    from pathlib import Path

    from repro.fuzz.corpus import replay_entry

    failures = 0
    for name in args.replay:
        path = Path(name)
        entry = json.loads(path.read_text(encoding="utf-8"))
        ok, violations = replay_entry(entry, backend=args.backend)
        verdict = "ok" if ok else "FAILED"
        print(f"replay {path.name}: expect={entry.get('expect')} "
              f"-> {verdict}")
        for violation in violations:
            print(f"  {violation}")
        if not ok:
            failures += 1
    print(f"replay: {len(args.replay) - failures}/{len(args.replay)} "
          "entr(ies) met expectations")
    return 0 if failures == 0 else 1


def _client_of(args: argparse.Namespace):
    """A :class:`ServeClient` for the daemon the args point at."""
    from pathlib import Path

    from repro.serve import ServeClient

    if getattr(args, "port", None):
        return ServeClient(host="127.0.0.1", port=args.port)
    socket_path = args.socket or str(Path(args.state_dir) / "serve.sock")
    return ServeClient(socket_path=socket_path)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import run_daemon

    if args.stop:
        _client_of(args).shutdown()
        print("serve: shutdown requested")
        return 0

    def on_ready(daemon) -> None:
        where = daemon.socket_path or f"127.0.0.1:{daemon.port}"
        print(f"serve: listening on {where} "
              f"(state: {args.state_dir})", flush=True)

    return run_daemon(
        args.state_dir,
        socket_path=args.socket,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        seed=_seed_of(args),
        on_ready=on_ready,
    )


def _job_row(job: dict, suffix: str = "") -> str:
    """A job's row in ``jobs``, ``watch`` and ``top`` (``suffix``: rate)."""
    done, total = job.get("progress") or (0, 0)
    progress = f"{done}/{total}" if total else "-"
    label = f"  [{job['label']}]" if job.get("label") else ""
    return (f"{job['job_id']}  {job['state']:<9} {job['kind']:<8} "
            f"shards {progress}{suffix}{label}")


def _print_terminal(job: dict) -> None:
    print(f"{job['job_id']}: {job['state']}")
    if job.get("error"):
        print(f"  error: {job['error']}")
    summary = job.get("summary") or {}
    for name in ("runs", "installs_completed", "hijacks", "blocked",
                 "install_failures"):
        if name in summary:
            print(f"  {name:<19}: {summary[name]}")


def _watch_frames(client, job_id: str) -> dict:
    """Stream one job's frames to stdout; returns the terminal job."""

    def on_frame(frame: dict) -> None:
        event = frame.get("event")
        if event == "shard":
            stats = frame.get("stats") or {}
            print(f"  shard {frame['shard']:>3} done "
                  f"({frame['done']}/{frame['total']})  "
                  f"runs={stats.get('runs', 0)} "
                  f"hijacks={stats.get('hijacks', 0)}", flush=True)
        elif event == "status":
            print(_job_row(frame["job"]))

    frames = client.watch(job_id, on_frame=on_frame)
    return frames[-1]["job"]


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.engine.spec import CampaignSpec

    client = _client_of(args)
    if args.case:
        from repro.fuzz.gen import FuzzCase

        with open(args.case, "r", encoding="utf-8") as handle:
            case = FuzzCase.from_json(handle.read())
        job = client.submit_fuzz(case, priority=args.priority,
                                 label=args.label)
    else:
        spec = CampaignSpec(
            installs=args.installs,
            installer=args.installer,
            attack=args.attack,
            defenses=tuple(args.defense),
            device=args.device,
            seed=_seed_of(args),
            observe=not args.no_observe,
        )
        job = client.submit_campaign(
            spec, shards=args.shards, priority=args.priority,
            label=args.label, derive_seed=args.derive_seed)
    print(f"submitted {job['job_id']} ({job['state']}) "
          f"seed={job['spec']['seed']}")
    if not args.wait:
        return 0
    final = _watch_frames(client, job["job_id"])
    _print_terminal(final)
    return 0 if final["state"] == "done" else 1


def _print_health(health: dict) -> None:
    print(f"health: queue={health['queue_depth']} "
          f"running={health['running'] or '-'} "
          f"workers={health['workers']} backend={health['backend']} "
          f"completed={health['jobs_completed']} "
          f"failed={health['jobs_failed']} "
          f"restarts={health['worker_restarts']} "
          f"uptime={health['uptime_s']}s")
    states = health.get("jobs_by_state") or {}
    if states:
        from repro.serve.protocol import JOB_STATES

        rendered = " ".join(f"{state}={states.get(state, 0)}"
                            for state in JOB_STATES)
        print(f"  jobs by state: {rendered}")
    pids = health.get("worker_pids") or {}
    if pids:
        rendered = " ".join(f"{slot}:{pid}"
                            for slot, pid in sorted(pids.items()))
        print(f"  warm workers : {rendered}")
    if health.get("telemetry"):
        from repro.obs.runtime import TelemetryRollup

        rollup = TelemetryRollup.from_dict(health["telemetry"])
        print(f"  telemetry    : {rollup.render()}")


def _cmd_jobs(args: argparse.Namespace) -> int:
    listing = _client_of(args).jobs()
    for job in listing["jobs"]:
        print(_job_row(job))
    _print_health(listing["health"])
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.runtime import render_prometheus, validate_exposition

    if args.job:
        # Offline: render the job's stored telemetry rollup without a
        # daemon round trip (works after the service has shut down).
        from repro.errors import ReproError
        from repro.serve.checkpoint import read_result

        result = read_result(args.state_dir, args.job)
        if result is None:
            raise ReproError(f"job {args.job} has no stored result "
                             f"(not finished yet?)")
        text = render_prometheus(job_rollups={args.job: result["telemetry"]})
    else:
        # Default (and explicit --serve): scrape the live daemon.
        text = _client_of(args).metrics()
    count = validate_exposition(text)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    print(f"metrics: {count} valid sample(s)", file=sys.stderr)
    return 0


def _rate_line(job: dict, prev: dict, now: float) -> str:
    """Shard-rate / ETA suffix for a running job's ``top`` row."""
    done, total = job.get("progress") or (0, 0)
    seen = prev.get(job["job_id"])
    prev[job["job_id"]] = (done, now)
    if job["state"] != "running" or not seen:
        return ""
    prev_done, prev_at = seen
    elapsed = now - prev_at
    if elapsed <= 0 or done <= prev_done:
        return ""
    rate = (done - prev_done) / elapsed
    eta = (total - done) / rate if rate > 0 else 0.0
    return f"  {rate:.2f} shard/s  eta {eta:.0f}s"


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    client = _client_of(args)
    prev: dict = {}
    frame = 0
    try:
        while True:
            listing = client.jobs()
            now = time.monotonic()
            if sys.stdout.isatty():  # pragma: no cover - interactive
                sys.stdout.write("\x1b[2J\x1b[H")
            print(f"repro top — frame {frame + 1}")
            _print_health(listing["health"])
            for job in listing["jobs"]:
                print("  " + _job_row(job, _rate_line(job, prev, now)))
            frame += 1
            if args.iterations and frame >= args.iterations:
                return 0
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    final = _watch_frames(_client_of(args), args.job)
    _print_terminal(final)
    return 0 if final["state"] == "done" else 1


def _resolve_trace_source(args: argparse.Namespace) -> str:
    """The trace file a ``trace`` subcommand should read.

    Either an explicit ``--trace PATH``, or ``--job ID`` which looks
    the archived trace up in the serve state directory.
    """
    from repro.errors import ReproError

    job_id = getattr(args, "job", None)
    if job_id:
        from repro.serve.checkpoint import TRACE_FILE, job_dir

        path = job_dir(args.state_dir, job_id) / TRACE_FILE
        if not path.exists():
            raise ReproError(
                f"job {job_id} has no archived trace at {path} "
                f"(not finished, or submitted with --no-observe?)")
        return str(path)
    if not args.trace:
        raise ReproError("trace commands need --trace PATH or --job ID")
    return args.trace


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        critical_path,
        diff_traces,
        iter_trace_jsonl,
        load_trace_jsonl,
        profile_trace,
        render_critical_path,
        render_diff,
        render_profile,
        render_windows,
        window_forensics,
    )

    source = _resolve_trace_source(args)
    if args.trace_command == "summary":
        # Streams: per-name aggregates only, never the whole trace.
        print(render_profile(profile_trace(iter_trace_jsonl(source))))
    elif args.trace_command == "critpath":
        path = critical_path(load_trace_jsonl(source), shard=args.shard)
        print(render_critical_path(path))
    elif args.trace_command == "windows":
        print(render_windows(window_forensics(iter_trace_jsonl(source))))
    elif args.trace_command == "diff":
        diff = diff_traces(load_trace_jsonl(source),
                           load_trace_jsonl(args.against))
        print(render_diff(diff, max_detail=args.max_detail))
        return 0 if diff.empty else 1
    return 0


def _add_engine_flags(parser: argparse.ArgumentParser,
                      chaos_modes: str) -> None:
    """Engine flags shared by ``fleet`` and ``analyze``: shard layout,
    backend, failure injection, progress and shard profiling."""
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: one per worker)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: cores, max 4)")
    parser.add_argument("--backend", default="auto",
                        choices=BACKENDS)
    parser.add_argument("--chaos", default=None, metavar="MODE:I,J",
                        help="failure injection for pool workers "
                             f"({chaos_modes} + shard indices)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    parser.add_argument("--profile-shards", action="store_true",
                        help="cProfile every shard and merge the stats "
                             "into one hotspot table under "
                             "benchmarks/results/")
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="hotspot table path (default: "
                             "benchmarks/results/HOTSPOTS_<cmd>.txt)")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ghost Installer (DSN 2017) reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed for reproducible runs")
    common.add_argument("--trace", metavar="PATH", default=None,
                        help="export a simulated-time trace as JSONL")
    common.add_argument("--metrics", action="store_true",
                        help="collect and print deterministic metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="quickstart hijack + defense",
                   parents=[common])

    attack = sub.add_parser("attack", help="run one attack scenario",
                            parents=[common])
    attack.add_argument("--installer", default="amazon",
                        choices=sorted(all_installer_types()))
    attack.add_argument("--attack", default="fileobserver",
                        choices=sorted(ATTACKS))
    attack.add_argument("--defense", action="append", default=[],
                        choices=VALID_DEFENSES)
    attack.add_argument("--package", default="com.victim.app")

    sub.add_parser("tables", help="regenerate Tables II-VI and Section IV-B",
                   parents=[common])
    sub.add_parser("audit", help="audit installer designs",
                   parents=[common])

    fleet = sub.add_parser(
        "fleet", parents=[common],
        help="run a sharded campaign across a worker pool")
    fleet.add_argument("--installs", type=int, default=1000,
                       help="total installs in the campaign")
    fleet.add_argument("--installer", default="amazon",
                       choices=sorted(all_installer_types()))
    fleet.add_argument("--attack", default="none", choices=sorted(ATTACKS))
    fleet.add_argument("--defense", action="append", default=[],
                       choices=VALID_DEFENSES)
    fleet.add_argument("--device", default="nexus5",
                       choices=sorted(DEVICES))
    fleet.add_argument("--watch-depth", type=int, default=None,
                       metavar="N",
                       help="bound every FileObserver watch queue to N "
                            "pending events (default: lossless)")
    fleet.add_argument("--watch-drain-ns", type=int, default=None,
                       metavar="NS",
                       help="simulated per-event drain interval for "
                            "bounded watch queues")
    fleet.add_argument("--watch-coalesce", action="store_true",
                       help="drop a watch event when it duplicates the "
                            "newest queued one (inotify-style merge)")
    fleet.add_argument("--shard-timeout", type=float, default=None,
                       help="per-shard timeout in seconds")
    fleet.add_argument("--retries", type=int, default=2,
                       help="pool retries per shard before serial fallback")
    fleet.add_argument("--checkpoint", metavar="DIR", default=None,
                       help="journal completed shards to DIR so a "
                            "killed run resumes bit-identically "
                            "(requires an explicit --shards)")
    _add_engine_flags(fleet, "crash:|hang:|error:")

    from repro.analysis.pipeline import ANALYSIS_CORPORA

    analyze = sub.add_parser(
        "analyze", parents=[common],
        help="run the sharded measurement study (classifier, redirect "
             "scan, hare, platform keys)")
    analyze.add_argument("--corpus", default="play",
                         choices=list(ANALYSIS_CORPORA),
                         help="workload: play / preinstalled app corpus "
                              "or the factory-image fleet")
    analyze.add_argument("--apps", type=int, default=None,
                         help="scale the corpus to N apps — or, for "
                              "--corpus images, N factory images — at "
                              "the paper's trait rates (default: paper "
                              "size)")
    analyze.add_argument("--cache", metavar="DIR", default=None,
                         help="content-addressed analysis cache: re-runs "
                              "only re-analyze apps whose code or "
                              "consulted detector versions changed")
    _add_engine_flags(analyze, "crash:|error:")

    from repro.fuzz.oracles import oracle_names

    fuzz = sub.add_parser(
        "fuzz", parents=[common],
        help="seeded scenario fuzzing under invariant oracles")
    fuzz.add_argument("--budget", type=int, default=200,
                      help="number of generated cases to run")
    fuzz.add_argument("--oracle", action="append", default=[],
                      choices=list(oracle_names()),
                      help="oracle(s) to check (default: all)")
    fuzz.add_argument("--shards", type=int, default=None,
                      help="engine-backed mode: force every case onto "
                           "this shard count (case chaos is dropped)")
    fuzz.add_argument("--workers", type=int, default=None,
                      help="worker processes for non-serial backends")
    fuzz.add_argument("--backend", default="serial",
                      choices=BACKENDS,
                      help="fleet backend for case execution")
    fuzz.add_argument("--corpus", metavar="DIR", default=None,
                      help="regression corpus directory "
                           "(default: tests/fuzz/corpus)")
    fuzz.add_argument("--no-corpus", action="store_true",
                      help="do not write shrunk failures to the corpus")
    fuzz.add_argument("--break-defense", default=None, metavar="NAME",
                      choices=VALID_DEFENSES,
                      help="test-only: suppress one defense's reactions "
                           "to prove the oracles notice")
    fuzz.add_argument("--strict-lossy", action="store_true",
                      help="hold plain dapp to full completeness even on "
                           "lossy-watcher devices (proves watcher-flood "
                           "defeats the notify-only detector)")
    fuzz.add_argument("--replay", action="append", default=[],
                      metavar="FILE",
                      help="replay corpus entry FILE(s) against their "
                           "recorded expectations instead of fuzzing")

    serve_common = argparse.ArgumentParser(add_help=False)
    serve_common.add_argument("--state-dir", metavar="DIR",
                              default=DEFAULT_STATE_DIR,
                              help="daemon state directory "
                                   f"(default: {DEFAULT_STATE_DIR})")
    serve_common.add_argument("--socket", metavar="PATH", default=None,
                              help="unix socket path (default: "
                                   "<state-dir>/serve.sock)")
    serve_common.add_argument("--port", type=int, default=None,
                              help="listen/connect on local TCP instead "
                                   "of the unix socket")

    serve = sub.add_parser(
        "serve", parents=[serve_common],
        help="run the resident campaign service (warm worker pool)")
    serve.add_argument("--workers", type=int, default=None,
                       help="warm pool width (default: cores, max 4)")
    serve.add_argument("--backend", default="auto",
                       choices=BACKENDS)
    serve.add_argument("--seed", type=int, default=None,
                       help="service seed for derived per-job seeds")
    serve.add_argument("--stop", action="store_true",
                       help="ask a running daemon to drain and stop")

    submit = sub.add_parser(
        "submit", parents=[serve_common],
        help="enqueue a campaign (or fuzz case) on a running daemon")
    submit.add_argument("--case", metavar="FILE", default=None,
                        help="submit this FuzzCase JSON instead of "
                             "a campaign")
    submit.add_argument("--installs", type=int, default=1000)
    submit.add_argument("--installer", default="amazon",
                        choices=sorted(all_installer_types()))
    submit.add_argument("--attack", default="none", choices=sorted(ATTACKS))
    submit.add_argument("--defense", action="append", default=[],
                        choices=VALID_DEFENSES)
    submit.add_argument("--device", default="nexus5",
                        choices=sorted(DEVICES))
    submit.add_argument("--shards", type=int, default=None,
                        help="shard count (default: pool width)")
    submit.add_argument("--seed", type=int, default=None,
                        help="campaign seed (default: 7)")
    submit.add_argument("--derive-seed", action="store_true",
                        help="let the service assign a deterministic "
                             "per-job seed instead of --seed")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (FIFO within a level)")
    submit.add_argument("--label", default="",
                        help="free-form tag shown in job listings")
    submit.add_argument("--no-observe", action="store_true",
                        help="skip trace archiving for this job")
    submit.add_argument("--wait", action="store_true",
                        help="stream progress until the job finishes")

    sub.add_parser("jobs", parents=[serve_common],
                   help="list the daemon's jobs and health")

    metrics = sub.add_parser(
        "metrics", parents=[serve_common],
        help="Prometheus text exposition from the daemon or a job")
    metrics.add_argument("--serve", action="store_true",
                         help="scrape the running daemon (the default "
                              "when --job is not given)")
    metrics.add_argument("--job", metavar="ID", default=None,
                         help="render this finished job's stored "
                              "telemetry offline instead of scraping")

    top = sub.add_parser(
        "top", parents=[serve_common],
        help="live ops view: health, queue, per-job rates and ETAs")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N frames (0: until interrupted)")

    watch = sub.add_parser(
        "watch", parents=[serve_common],
        help="stream one job's shard frames until it finishes")
    watch.add_argument("job", help="job id to watch")

    trace = sub.add_parser(
        "trace", help="forensics over a recorded JSONL trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_common = argparse.ArgumentParser(add_help=False)
    trace_common.add_argument("--trace", metavar="PATH", default=None,
                              help="JSONL trace file to analyze")
    trace_common.add_argument("--job", metavar="ID", default=None,
                              help="analyze the archived trace of this "
                                   "serve job instead of a file")
    trace_common.add_argument("--state-dir", metavar="DIR",
                              default=DEFAULT_STATE_DIR,
                              help="serve state directory for --job "
                                   f"(default: {DEFAULT_STATE_DIR})")
    trace_sub.add_parser(
        "summary", parents=[trace_common],
        help="per-name/per-layer latency profile with percentiles")
    critpath = trace_sub.add_parser(
        "critpath", parents=[trace_common],
        help="critical path of the longest recorded span tree")
    critpath.add_argument("--shard", type=int, default=None,
                          help="restrict to one shard of a fleet trace")
    trace_sub.add_parser(
        "windows", parents=[trace_common],
        help="armed->strike window widths split by hijack outcome")
    diff = trace_sub.add_parser(
        "diff", parents=[trace_common],
        help="structural diff of two traces (exit 1 when they differ)")
    diff.add_argument("--against", metavar="PATH", required=True,
                      help="second JSONL trace to compare against")
    diff.add_argument("--max-detail", type=int, default=20,
                      help="changed/added records to list per section")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _run_demo_inline(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pipe reader (head, less, ...) closed early.
        # Detach stdout so interpreter shutdown does not retry the
        # flush and print a traceback; 141 mirrors SIGPIPE death.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
