#!/usr/bin/env python3
"""The repository's benchmark: five workloads, end to end and per layer.

    python3 perfbench/run.py --workload fleet-benign --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run sets the
workload up (three times, to report the median set-up time), warms it up
with one untimed job per variant, then issues jobs in a closed loop for
``--seconds`` seconds with tracing off, checks every job's output, and
prints the end-to-end metrics at the reference host speed (see
``probe_ns``).  With ``--trace 1`` it runs a fixed number of jobs twice
each, once plain and once with the layer wrappers of ``tracer.py``
installed, prints the per-layer ledger, and reports the per-layer
metrics.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Only files inside the checkout are read or written: work files go to
``.perfbench-work/`` (removed at exit) and span dumps to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(os.getcwd(), ".perfbench-work")
OUT_ROOT = os.path.join(os.getcwd(), ".perfbench-out")
DEFAULT_SEED = 1
#: Set-up repeats per timed run (this process plus fresh children).
SETUP_SAMPLES = 3
#: Consecutive-job groups whose rates are medianed.
GROUPS = 10
#: Iterations of the host-speed probe (see ``probe_ns``).
PROBE_LOOPS = 20000
#: The probe's time at the reference host speed.  Timed metrics are
#: reported at this speed: a time measured while the probe took ``p`` ns
#: is scaled by ``PROBE_REF_NS / p``.
PROBE_REF_NS = 2_000_000
#: Neighbours on either side whose probes and steal correct a job's
#: times (see ``end_to_end``).
PROBE_WINDOW = 2
#: CPUs the machine's steal time is spread over.
CPUS = os.cpu_count() or 1
#: The largest share of a job's time taken away as stolen.
MAX_STOLEN = 0.5
#: Probes taken just before and again just after each set-up.
SETUP_PROBES = 8

sys.path.insert(0, os.path.join(ROOT, "src"))

from procstat import ProcessTree, process_age_s, steal_s  # noqa: E402
from tracer import (  # noqa: E402
    UNATTRIBUTED,
    WORKER_BUSY,
    Tracer,
    attribute_workers,
    durations_us,
    named_ns,
    render_ledger,
    self_times,
)
from workloads import WORKLOADS, memo_sizes  # noqa: E402

from repro.obs import host_metadata  # noqa: E402

_now = time.perf_counter_ns

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "first_shard_p50_ms": "ms",
}

#: name -> (unit, span name or None).  Names with a span name are the
#: inclusive time of that call summed over the traced jobs.
PER_LAYER = {
    "executor.self_ms": ("ms", None),
    "engine.dispatch_wait_ms": ("ms", None),
    "engine.result_bytes": ("bytes", None),
    "engine.processes_spawned": ("count", None),
    "engine.merge_ms": ("ms", ".from_shards"),
    "spec.provision_ms": ("ms", "ShardSpec.build_scenario"),
    "spec.publish_ms": ("ms", "ShardSpec.publish_workload"),
    "scenario.install_p50_us": ("us", None),
    "scenario.install_p99_us": ("us", None),
    "scenario.self_ms": ("ms", None),
    "filesystem.calls": ("count", None),
    "filesystem.self_ms": ("ms", None),
    "pms.calls": ("count", None),
    "pms.self_ms": ("ms", None),
    "kernel.self_ms": ("ms", None),
    "kernel.events_dispatched": ("count", None),
    "kernel.host_ns_per_event": ("ns", None),
    "events.published": ("count", None),
    "events.delivered": ("count", None),
    "events.dropped": ("count", None),
    "events.publish_self_ms": ("ms", None),
    "defenses.alarms": ("count", None),
    "defenses.blocked": ("count", None),
    "campaign.record_ms": ("ms", "CampaignStats.record"),
    "corpus.app_at_ms": ("ms", "PlayCorpusPlan.app_at"),
    "smali.parse_ms": ("ms", "smali.parse_program"),
    "classifier.classify_ms": ("ms", "InstallerClassifier.classify"),
    "pipeline.analyze_app_ms": ("ms", "pipeline.analyze_app"),
    "pipeline.fold_ms": ("ms", "pipeline.fold_analysis"),
    "smali.memo_lines": ("count", None),
    "cache.key_ms": ("ms", "AnalysisCache.key_for"),
    "cache.load_ms": ("ms", "AnalysisCache.load"),
    "cache.store_ms": ("ms", "AnalysisCache.store"),
    "cache.flush_ms": ("ms", "AnalysisCache.flush"),
    "cache.hits": ("count", None),
    "cache.misses": ("count", None),
    "cache.hit_ratio": ("ratio", None),
    "cache.segments": ("count", None),
    "cache.bytes_written": ("bytes", None),
    "client.submit_ms": ("ms", "ServeClient.submit_campaign"),
    "serve.queue_wait_ms": ("ms", "queue_wait"),
    "checkpoint.record_ms": ("ms", "ShardJournal.record"),
    "checkpoint.journal_ms": ("ms", "JobStore.append_journal"),
    "checkpoint.result_ms": ("ms", "JobStore.write_result"),
    "checkpoint.bytes": ("bytes", None),
    "ledger.traced_wall_ms": ("ms", None),
    "ledger.untraced_wall_ms": ("ms", None),
    "ledger.overhead_pct": ("%", None),
    "ledger.named_share_pct": ("%", None),
    "ledger.unattributed_pct": ("%", None),
}

#: Layer self times reported under their own metric name.
SELF_METRICS = {
    "executor.self_ms": "engine.executor",
    "scenario.self_ms": "core.scenario",
    "filesystem.self_ms": "android.filesystem",
    "pms.self_ms": "android.pms",
    "kernel.self_ms": "sim.kernel",
    "events.publish_self_ms": "sim.events",
}
CALL_METRICS = {
    "filesystem.calls": "android.filesystem",
    "pms.calls": "android.pms",
}


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (inclusive method); the value if only one."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q)) - 1]


def groups_of(items, count: int):
    """Split ``items`` into ``count`` consecutive, near-equal groups."""
    count = max(1, min(count, len(items)))
    base, extra = divmod(len(items), count)
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        yield items[start:stop]
        start = stop


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def probe_ns() -> int:
    """The CPU time of a fixed amount of pure-Python arithmetic.

    The shared host's speed drifts by up to 1.7x over seconds to minutes
    as its neighbours' load changes, and the program's own times drift
    with it.  The probe allocates nothing and touches no program state,
    so its time follows the host alone; interleaved with the jobs, it
    lets every timed metric be reported at one reference speed.  It is
    timed by this thread's CPU clock, so a program process that runs
    while the probe waits for a CPU does not make the host look slower.
    """
    start = time.thread_time_ns()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.thread_time_ns() - start


def speed_scale(probes) -> float:
    """The factor that takes times measured during ``probes`` to the
    reference speed."""
    return PROBE_REF_NS / statistics.median(probes)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload) -> float:
    """Set up and warm up; returns the seconds it took."""
    started = time.perf_counter()
    workload.setup()
    workload.warmup()
    return time.perf_counter() - started


def timed_setup(workload, imported_s: float) -> dict:
    """Set up, with the process's age at ``imported_s``; the time as
    measured and at the reference speed.  The probes around it are not
    part of the time."""
    probes = [probe_ns() for _ in range(SETUP_PROBES)]
    seconds = imported_s + set_up(workload)
    probes += [probe_ns() for _ in range(SETUP_PROBES)]
    return {"setup_s": seconds * speed_scale(probes), "setup_raw_s": seconds}


def setup_sample(args) -> dict:
    """One set-up in a fresh process, interpreter start included."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError("set-up sample failed: "
                           + done.stderr.decode(errors="replace")[-2000:])
    return json.loads(done.stdout.decode().splitlines()[-1])


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class JobRecord:
    """One turn of the timed loop: a job, then the probe and the reads
    of the machine's counters.  ``start``/``end`` bound the job alone;
    ``span_ns`` and ``cpu_s`` run from the end of the previous turn to
    the end of this one, less the CPU time of this turn's probe and
    counter reads, so that work the program does after a job returns
    still counts."""

    __slots__ = ("start", "end", "ok", "first_ns", "cpu_s", "probe_ns",
                 "stolen_s", "span_ns")

    def __init__(self, start, end, ok, first_ns, cpu_s, probe, stolen_s,
                 span_ns) -> None:
        self.start, self.end, self.ok = start, end, ok
        self.first_ns, self.cpu_s, self.probe_ns = first_ns, cpu_s, probe
        #: Steal over this turn, and the turn's length.
        self.stolen_s, self.span_ns = stolen_s, span_ns


def one_job(workload, index: int, errors: list, runner=None, **kwargs):
    """Run and check one job (through ``runner`` if given, which takes
    ``run_job``'s arguments); an exception is a failed job."""
    start = _now()
    try:
        output = (runner or workload.run_job)(index, **kwargs)
        end = _now()
        return start, end, workload.check(output), output.first_shard_ns
    except Exception:  # the benchmark counts the failure and goes on
        end = _now()
        if len(errors) < 3:
            errors.append(traceback.format_exc())
        return start, end, False, end - start


def timed_loop(workload, seconds: float, errors: list):
    tree = ProcessTree(workload.roots)
    records = []
    stolen_mark, cpu_mark, mark = steal_s(), tree.cpu_s(), _now()
    began = mark
    limit = int(seconds * 1e9)
    index = 0
    while mark - began < limit:
        start, end, ok, first_ns = one_job(workload, index, errors)
        own = time.thread_time_ns()
        probe = probe_ns()
        stolen = steal_s()
        own = time.thread_time_ns() - own
        cpu, now = tree.cpu_s(), _now()
        records.append(JobRecord(start, end, ok, first_ns,
                                 cpu - cpu_mark - own / 1e9, probe,
                                 stolen - stolen_mark, now - mark - own))
        stolen_mark, cpu_mark, mark = stolen, cpu, now
        index += 1
    return records, tree


def window(values: list, index: int) -> list:
    """``values[index]`` and its ``PROBE_WINDOW`` neighbours each side."""
    return values[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW + 1]


def end_to_end(workload, records, tree, setups, normalize=True):
    """The end-to-end metrics; at the reference speed and without stolen
    time unless not ``normalize``.  Each job is scaled by the probes and
    the steal of its own and its ``PROBE_WINDOW`` neighbours' turns."""
    ops = workload.operations()
    probes = [r.probe_ns for r in records]
    stolen = [r.stolen_s * 1e9 for r in records]
    spans = [r.span_ns * CPUS for r in records]
    speeds, kept = [1.0] * len(records), [1.0] * len(records)
    if normalize:
        for i in range(len(records)):
            speeds[i] = speed_scale(window(probes, i))
            # Steal, spread over the machine's CPUs, delays a job by its
            # share of the time; CPU time does not include it.
            kept[i] = 1.0 - min(MAX_STOLEN, sum(window(stolen, i))
                                / sum(window(spans, i)))
    walls = [(r.end - r.start) * k * f / 1e6
             for r, k, f in zip(records, speeds, kept)]
    turns = [r.span_ns * k * f / 1e6
             for r, k, f in zip(records, speeds, kept)]
    firsts = [r.first_ns * k * f / 1e6
              for r, k, f in zip(records, speeds, kept)]
    cpus = [r.cpu_s * k * 1000.0 for r, k in zip(records, speeds)]
    rates, cpu_rates = [], []
    for group in groups_of(range(len(records)), GROUPS):
        items = ops * len(group)
        rates.append(items * 1000.0 / sum(turns[i] for i in group))
        cpu_rates.append(sum(cpus[i] for i in group) / items)
    key = "setup_s" if normalize else "setup_raw_s"
    return {
        "setup_s": statistics.median(sample[key] for sample in setups),
        "items_per_s": statistics.median(rates),
        "cpu_ms_per_item": statistics.median(cpu_rates),
        "peak_rss_mb": tree.peak_rss_mb(),
        "latency_p50_ms": percentile(walls, 50),
        "latency_p90_ms": percentile(walls, 90),
        "first_shard_p50_ms": percentile(firsts, 50),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def run_phase(workload, jobs: int, errors: list, phase, installers,
              **kwargs):
    """``jobs`` pairs of one untraced and one traced job of the same
    variant, in alternating order, so that drift in the host's speed
    falls on both sides alike.  The wrappers are in place only while
    the traced job runs.  Returns (traced ns, untraced ns, failed jobs),
    the times summed over the jobs."""
    walls = [0, 0]
    failed = 0
    for index in range(jobs):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            runner = None
            if traced:
                phase.request = index
                for install in installers:
                    install(phase)
                # The job's root span: its self time is what no wrapper
                # saw, reported as unattributed.
                runner = phase.wrap(UNATTRIBUTED, "job", workload.run_job)
            try:
                start, end, ok, _ = one_job(
                    workload, index, errors, runner,
                    tracer=phase if traced else None, **kwargs)
            finally:
                phase.unpatch()
            walls[traced] += end - start
            failed += 0 if ok else 1
    return walls[1], walls[0], failed


def per_layer(tracer, walls, exact, state_bytes) -> dict:
    spans = tracer.spans
    layers = self_times(spans)
    counts = tracer.counts
    metrics = {}
    for name, (unit, span_name) in PER_LAYER.items():
        if span_name is None:
            continue
        total_ns = sum(span[3] - span[2] for span in spans
                       if span[0] == span_name
                       or (span_name.startswith(".")
                           and span[0].endswith(span_name)))
        metrics[name] = total_ns / 1e6
    for name, layer in SELF_METRICS.items():
        metrics[name] = layers.get(layer, {}).get("self_ns", 0) / 1e6
    for name, layer in CALL_METRICS.items():
        metrics[name] = layers.get(layer, {}).get("calls", 0)
    installs = durations_us(spans, "Scenario.run_install")
    metrics["scenario.install_p50_us"] = (
        percentile(installs, 50) if installs else 0.0)
    metrics["scenario.install_p99_us"] = (
        percentile(installs, 99) if installs else 0.0)
    for name in ("engine.dispatch_wait_ms", "engine.result_bytes"):
        values = [value for _, value in tracer.samples.get(name, [])]
        metrics[name] = statistics.median(values) if values else 0
    metrics["engine.processes_spawned"] = sum(
        1 for span in spans if span[0] == "BaseProcess.start")
    events = counts.get("kernel.events_dispatched", 0)
    metrics["kernel.host_ns_per_event"] = (
        layers.get("sim.kernel", {}).get("self_ns", 0) / events
        if events else 0.0)
    metrics["events.published"] = counts.get("events.published", 0)
    metrics["events.delivered"] = counts.get("events.delivered", 0)
    for name in ("kernel.events_dispatched", "events.dropped",
                 "defenses.alarms", "defenses.blocked", "cache.hits",
                 "cache.misses", "cache.segments", "cache.bytes_written"):
        metrics[name] = exact.get(name, 0)
    looked_up = exact.get("cache.hits", 0) + exact.get("cache.misses", 0)
    metrics["cache.hit_ratio"] = (exact.get("cache.hits", 0) / looked_up
                                  if looked_up else 0.0)
    metrics["smali.memo_lines"] = memo_sizes()["smali_scan_memo"]
    metrics["checkpoint.bytes"] = state_bytes
    traced, untraced, named = walls
    metrics["ledger.traced_wall_ms"] = traced / 1e6
    metrics["ledger.untraced_wall_ms"] = untraced / 1e6
    metrics["ledger.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    metrics["ledger.named_share_pct"] = 100.0 * named / traced
    metrics["ledger.unattributed_pct"] = 100.0 * layers.get(
        UNATTRIBUTED, {}).get("self_ns", 0) / traced
    return metrics


def absorb(into: list, spans) -> None:
    """Append ``spans`` to ``into``, re-indexing their parent links."""
    base = len(into)
    into.extend(span[:4] + [span[4] + base if span[4] >= 0 else -1, span[5]]
                for span in spans)


def traced_run(workload, errors: list):
    """Interleaved untraced and traced jobs per phase, the exact pass,
    and the ledger."""
    jobs = workload.trace_jobs
    failed_jobs = total_jobs = 0
    tracer = Tracer()
    state_bytes = traced_ns = untraced_ns = named = 0
    ledgers = []
    for title, installers, kwargs in workload.traced_phases():
        phase = Tracer()
        workload.begin_traced(phase)
        since = _now()
        wall_t, wall_u, bad = run_phase(workload, jobs, errors, phase,
                                        installers, **kwargs)
        failed_jobs += bad
        total_jobs += 2 * jobs
        extra = workload.end_traced(since)
        spans = list(phase.spans)
        absorb(spans, extra.get("spans", []))
        busy = [value for source in (phase.samples, extra.get("samples", {}))
                for _, value in source.get(WORKER_BUSY, [])]
        attribute_workers(spans, busy, ("FleetExecutor.run", "WarmPool.poll"),
                          "engine.workers")
        layers = self_times(spans)
        if extra:
            # Daemon spans cover time the client spent blocked in its
            # submit and watch calls: charge it to the daemon's layers.
            layers["serve.client"]["self_ns"] -= sum(
                span[3] - span[2] for span in extra["spans"] if span[4] < 0)
            state_bytes = extra["state_bytes"]
        ledgers.append(render_ledger(
            layers, wall_t, wall_u,
            f"{workload.name} / {title} ({jobs} jobs)"))
        traced_ns += wall_t
        untraced_ns += wall_u
        named += named_ns(layers)
        absorb(tracer.spans, spans)
        for name, value in phase.counts.items():
            tracer.count(name, value)
        for source in (phase.samples, extra.get("samples", {})):
            for name, values in source.items():
                tracer.samples.setdefault(name, []).extend(values)
    exact = workload.exact_counts()
    metrics = per_layer(tracer, (traced_ns, untraced_ns, named), exact,
                        state_bytes)
    return metrics, ledgers, tracer, total_jobs, failed_jobs


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None, scale: float = 1.0, setup_samples: int = SETUP_SAMPLES
         ) -> int:
    args = parse_args(argv)
    imported_s = process_age_s()
    os.makedirs(WORK_ROOT, exist_ok=True)
    # Everything the program puts in a temporary directory stays inside
    # the checkout; children (pool workers, the daemon) inherit this.
    os.environ["TMPDIR"] = WORK_ROOT
    tempfile.tempdir = None
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir, scale)
    errors: list = []
    try:
        if args.setup_only:
            sample = timed_setup(workload, imported_s)
            print(json.dumps({**sample, "setup_ok": workload.setup_ok}))
            return 0 if workload.setup_ok else 1
        host = dict(host_metadata(), nproc=os.cpu_count() or 1)
        if args.trace:
            set_up(workload)
            metrics, ledgers, tracer, jobs, failed_jobs = traced_run(
                workload, errors)
            ops = workload.operations()
            attempted, failed = jobs * ops, failed_jobs * ops
            for ledger in ledgers:
                print(ledger)
            os.makedirs(OUT_ROOT, exist_ok=True)
            spans_path = os.path.join(
                OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            tracer.write(spans_path)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            detail = {"spans": os.path.relpath(spans_path)}
        else:
            samples = [setup_sample(args) for _ in range(setup_samples - 1)]
            samples.append(timed_setup(workload, imported_s))
            memo_start = memo_sizes()
            records, tree = timed_loop(workload, args.seconds, errors)
            memo_end = memo_sizes()
            metrics = end_to_end(workload, records, tree, samples)
            raw = end_to_end(workload, records, tree, samples,
                             normalize=False)
            ops = workload.operations()
            attempted = len(records) * ops
            failed = sum(ops for record in records if not record.ok)
            units = END_TO_END
            detail = {"jobs": len(records), "ops_per_job": ops,
                      **workload.details(),
                      "setup_samples": samples,
                      "probe_ms_median": statistics.median(
                          r.probe_ns for r in records) / 1e6,
                      "measured": raw,
                      "steal_s": sum(r.stolen_s for r in records),
                      "memo_at_start": memo_start, "memo_at_end": memo_end}
        correct = workload.setup_ok and failed == 0 and not errors
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "trace": args.trace, "unit": workload.unit,
                          "why": workload.why, "host": host, **detail,
                          "errors": errors}))
        print(result_line(correct, attempted, failed, metrics, units))
        return 0
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
