"""The benchmark's five workloads.

Every workload is a closed loop of jobs issued by one caller: the next
job starts only after the previous one returned and was checked.  A job
is one ``run_fleet`` or ``run_analysis`` call, or one campaign submitted
to the serve daemon and followed to its ``done`` frame.  Its operations
are installs, apps or jobs, as ``unit`` names them.

Each workload stresses some layers and bypasses others, so that a change
to one layer has a workload that should move and one that should not
(see ``perfbench/README.md`` for the table):

- ``fleet-benign``: attack-free Amazon-installer campaigns on the process
  backend, more shards than workers.  AIT, PMS, VFS, workload publishing,
  shard spawn, transport and merge dominate; EventHub is light.
- ``fleet-hijack``: a FileObserver attacker against DAPP on the serial
  backend.  EventHub, FileObserver and the defense carry much more of the
  time; the executor's pool is bypassed.
- ``analysis-cold``: the Play corpus, serial, into a fresh pack cache per
  job.  Parse, classify and redirect scan dominate, plus the cache's
  write side (``store`` and one ``flush`` per shard).
- ``analysis-warm``: the same corpus served from a pack cache filled in
  set-up, 0 apps analyzed.  Corpus generation, sha256 keying and pack
  reads dominate; the scanner is bypassed.
- ``serve-jobs``: small benign campaigns submitted to a daemon with a
  warm pool.  Per-job overhead dominates: protocol, queue, journal and
  checkpoint writes, warm-pool dispatch.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import repro.analysis.pipeline as pipeline_mod
import repro.analysis.smali as smali_mod
import repro.engine.executor as executor_mod
from repro.analysis.classifier import InstallerClassifier
from repro.analysis.corpus import PlayCorpusPlan
from repro.analysis.pipeline import (
    AnalysisCache,
    AnalysisReport,
    AnalysisSpec,
    run_analysis,
    table2_counts,
    table4_counts,
)
from repro.android.fileobserver import FileObserver
from repro.android.filesystem import FileHandle, Filesystem
from repro.android.pms import PackageManagerService
from repro.attacks.toctou import FileObserverHijacker
from repro.core.campaign import CampaignStats
from repro.core.scenario import Scenario
from repro.engine import (
    CampaignSpec,
    FleetExecutor,
    FleetProgress,
    FleetReport,
    ShardSpec,
    default_workers,
    run_fleet,
)
from repro.defenses.dapp import Dapp
from repro.serve.client import ServeClient
from repro.serve.protocol import stats_counters
from repro.sim.events import EventHub
from repro.sim.kernel import Kernel

from tracer import WORKER_BUSY, Tracer, read_spans, since

_now = time.perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
#: Packages whose coroutines and callbacks form a layer of their own.
_OWN_LAYERS = ("installers", "attacks", "defenses")


class JobOutput:
    """What one job returned, before its check."""

    __slots__ = ("value", "first_shard_ns")

    def __init__(self, value: Any, first_shard_ns: int) -> None:
        self.value = value
        self.first_shard_ns = first_shard_ns


class Hooks(FleetProgress):
    """Progress hooks: first-shard time, and transport when traced.

    Dispatch wait is the time from a shard's dispatch to its result's
    arrival in the parent, minus the shard's in-worker ``wall_seconds``:
    fork or queue hand-off, result pickling and the pipe.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.first_done: Optional[int] = None
        self._started: Dict[int, int] = {}

    def on_shard_start(self, shard, attempt) -> None:
        if self.tracer is not None:
            self._started[shard.index] = _now()

    def on_shard_done(self, result, done, total) -> None:
        now = _now()
        if self.first_done is None:
            self.first_done = now
        tracer = self.tracer
        if tracer is not None and result.shard_index in self._started:
            waited = (now - self._started.pop(result.shard_index)
                      - int(result.wall_seconds * 1e9))
            tracer.sample("engine.dispatch_wait_ms", waited / 1e6)
            if result.backend != "serial":
                tracer.sample("engine.result_bytes",
                              len(pickle.dumps(result)))
                tracer.sample(WORKER_BUSY,
                              (now - int(result.wall_seconds * 1e9), now))


# ---------------------------------------------------------------------------
# layer wrappers
# ---------------------------------------------------------------------------

def _public(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (callable(value)
                 or isinstance(value, (classmethod, staticmethod)))]


def _count_events(tracer: Tracer, value, args) -> None:
    tracer.count("kernel.events_dispatched", value)


def _count_publish(tracer: Tracer, value, args) -> None:
    tracer.count("events.published")
    tracer.count("events.delivered", value)


def trace_engine(tracer: Tracer) -> None:
    """engine.executor and engine.merge: the parent side of every job."""
    import multiprocessing.process as mp_process

    tracer.patch_method(FleetExecutor, "run", "engine.executor")
    tracer.patch_function(executor_mod, "run_shard", "engine.executor")
    tracer.patch_method(FleetReport, "from_shards", "engine.merge")
    tracer.patch_method(AnalysisReport, "from_shards", "engine.merge")
    tracer.patch_method(mp_process.BaseProcess, "start", "engine.executor")


def _layer_of(gen) -> str:
    """The layer of a generator's code: its module under ``repro``."""
    frame = getattr(gen, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    parts = module.split(".")
    if len(parts) < 3 or parts[0] != "repro":
        return "sim.kernel"
    return parts[1] if parts[1] in _OWN_LAYERS else ".".join(parts[1:3])


def trace_processes(tracer: Tracer) -> None:
    """Every kernel process's steps, charged to the layer of its code.

    The kernel steps coroutines (the AIT, the attacker, download
    transfers) from its dispatch loop; without this their bodies would
    count as kernel time.
    """
    spawn = Kernel.spawn

    def traced_spawn(self, gen, name=""):
        label = f"{getattr(gen, '__qualname__', 'process')} step"
        return spawn(self, tracer.steps(gen, _layer_of(gen), label), name)

    tracer.patch_attr(Kernel, "spawn", traced_spawn)


def trace_install_path(tracer: Tracer) -> None:
    """The in-shard layers of a fleet job (visible on the serial backend)."""
    tracer.patch_method(ShardSpec, "build_scenario", "engine.spec")
    tracer.patch_method(ShardSpec, "publish_workload", "engine.spec")
    tracer.patch_method(Scenario, "run_install", "core.scenario")
    tracer.patch_method(CampaignStats, "record", "core.campaign")
    for cls in (Filesystem, FileHandle):
        for name in _public(cls):
            tracer.patch_method(cls, name, "android.filesystem")
    for name in _public(PackageManagerService):
        tracer.patch_method(PackageManagerService, name, "android.pms")
    tracer.patch_method(Kernel, "run", "sim.kernel", on_result=_count_events)
    tracer.patch_method(EventHub, "publish", "sim.events",
                        on_result=_count_publish)
    # File events reach the observers, and through them the attacker and
    # the defense, by callbacks the kernel dispatches.
    tracer.patch_method(FileObserver, "_dispatch", "android.fileobserver")
    for cls, layer in ((Dapp, "defenses"), (FileObserverHijacker, "attacks")):
        for name in vars(cls):
            if name.startswith("_on_"):
                tracer.patch_method(cls, name, layer)
    trace_processes(tracer)


def trace_analysis_path(tracer: Tracer) -> None:
    """The per-app layers of an analysis job."""
    tracer.patch_method(PlayCorpusPlan, "app_at", "analysis.corpus")
    tracer.patch_function(smali_mod, "parse_program", "analysis.smali")
    tracer.patch_method(InstallerClassifier, "classify", "analysis.classifier")
    tracer.patch_function(pipeline_mod, "analyze_app", "analysis.pipeline")
    tracer.patch_function(pipeline_mod, "fold_analysis", "analysis.pipeline")
    for name in ("key_for", "load", "store", "flush"):
        tracer.patch_method(AnalysisCache, name, "analysis.cache")


def trace_client(tracer: Tracer) -> None:
    """serve.client: the caller's side of each job."""
    tracer.patch_method(ServeClient, "submit_campaign", "serve.client")
    tracer.patch_method(ServeClient, "watch", "serve.client")


def memo_sizes() -> Dict[str, int]:
    """Entries held by the process-level memos the warm-up fills."""
    import repro.analysis.corpus as corpus_mod
    import repro.android.apk as apk_mod
    import repro.android.signing as signing_mod

    return {
        "smali_scan_memo": len(smali_mod._SCAN_MEMO),
        "corpus_decoy_pool": corpus_mod._decoy_pool.cache_info().currsize,
        "image_plan": pipeline_mod._image_plan.cache_info().currsize,
        "apk_build_cache": len(apk_mod._BUILD_CACHE),
        "apk_parse_cache": len(apk_mod._PARSE_CACHE),
        "sign_cache": len(signing_mod._SIGN_CACHE),
    }


#: Seeds of the corpora that fill the scan memo: no job reads them.
FILL_SEED = 10 ** 9


def fill_scan_memo(seed: int) -> int:
    """Parse apps of corpora no job reads until the scan memo is full;
    returns how many apps that took.

    A process that has analyzed tens of thousands of apps holds a full
    memo (``smali._MEMO_CAP`` lines): lines shared by many apps hit, and
    the lines of one app alone (its package, its URLs) miss and are
    scanned.  Filling the memo from the jobs' own apps would let every
    line of theirs hit and take the scanner out of their time.
    """
    memo, cap = smali_mod._SCAN_MEMO, smali_mod._MEMO_CAP
    parsed = corpus = 0
    while len(memo) < cap:
        plan = PlayCorpusPlan(seed=FILL_SEED + 1000 * seed + corpus)
        corpus += 1
        for index in range(plan.size):
            if len(memo) >= cap:
                break
            smali_mod.parse_program(plan.app_at(index).smali_text,
                                    lenient=True)
            parsed += 1
    return parsed


class _CountingMemo(dict):
    """A copy of the scan memo that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


def dir_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                continue
    return total


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One named workload: set-up, a job, its check, and its tracing.

    Jobs cycle through ``ROTATION`` variants of the workload whose seeds
    derive from the run's seed.  A small job's cost depends on its seed
    by up to about 10%, so a workload of small jobs cycles through
    several variants and measures the workload rather than the seed.  A
    batch job of a thousand installs or thousands of apps averages that
    out by itself, and its workload uses one variant: the run's seed.
    """

    ROTATION = 4
    name = ""
    unit = ""
    why = ""
    #: Jobs per phase of the traced run (a multiple of ``ROTATION``).
    trace_jobs = 4

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.setup_ok = True
        self.roots: List[int] = []   # live child processes to account for
        self.references: List[Any] = []

    def scaled(self, count: int) -> int:
        return max(1, int(round(count * self.scale)))

    def variant_seed(self, slot: int) -> int:
        return self.seed * self.ROTATION + slot

    def setup(self) -> None:
        """Compute each variant's reference output; start what jobs need."""
        self.references = [self.reference(slot)
                           for slot in range(self.ROTATION)]

    def reference(self, slot: int) -> Any:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed job per variant, so process-level memos are filled."""
        for slot in range(self.ROTATION):
            if not self.check(self.run_job(slot)):
                self.setup_ok = False

    def run_job(self, index: int, tracer: Optional[Tracer] = None
                ) -> JobOutput:
        raise NotImplementedError

    def check(self, output: JobOutput) -> bool:
        """Does the job's output equal its variant's reference?"""
        slot, value = output.value
        return value == self.references[slot]

    def operations(self) -> int:
        """Operations one job attempts."""
        raise NotImplementedError

    def traced_phases(self):
        """``(title, wrapper installers, run_job kwargs)`` per phase."""
        return [("all layers", [trace_engine], {})]

    def begin_traced(self, tracer: Tracer) -> None:
        """Called before a phase's pairs of untraced and traced jobs."""

    def end_traced(self, since_ns: int) -> Dict[str, Any]:
        """Spans and samples recorded outside this process since then."""
        return {}

    def exact_counts(self) -> Dict[str, float]:
        """Counts from one ``observe=True`` pass (or the cache's state)."""
        return {}

    def details(self) -> Dict[str, Any]:
        """Facts about the run worth printing beside the metrics."""
        return {}

    def close(self) -> None:
        """Stop every process and release every resource."""


class FleetWorkload(Workload):
    """Jobs are ``run_fleet`` calls; the check compares merged counters
    with a serial single-shard run of the same spec made in set-up."""

    unit = "install"

    def __init__(self, seed: int, workdir: str, scale: float = 1.0,
                 attack: str = "none", defenses=(), backend: str = "serial",
                 workers: int = 1, shards: int = 1,
                 installs_per_shard: int = 500) -> None:
        super().__init__(seed, workdir, scale)
        self.backend = backend
        self.workers = workers
        self.shards = shards
        self.specs = [CampaignSpec(
            installs=self.scaled(installs_per_shard) * shards,
            installer="amazon", attack=attack, defenses=tuple(defenses),
            seed=self.variant_seed(slot)) for slot in range(self.ROTATION)]

    def operations(self) -> int:
        return self.specs[0].installs

    def reference(self, slot: int) -> tuple:
        report = run_fleet(self.specs[slot], shards=1, backend="serial")
        return report.stats.counter_tuple()

    def run_job(self, index, tracer=None, backend=None) -> JobOutput:
        slot = index % self.ROTATION
        hooks = Hooks(tracer)
        started = _now()
        report = run_fleet(self.specs[slot], shards=self.shards,
                           workers=self.workers,
                           backend=backend or self.backend, progress=hooks)
        return JobOutput((slot, report.stats.counter_tuple()),
                         (hooks.first_done or _now()) - started)

    def traced_phases(self):
        return [("serial backend, in-shard layers",
                 [trace_engine, trace_install_path], {"backend": "serial"})]

    def exact_counts(self) -> Dict[str, float]:
        spec = dataclasses.replace(self.specs[0], observe=True)
        report = run_fleet(spec, shards=self.shards, backend="serial")
        counters = (report.metrics or {}).get("counters", {})
        return {
            "kernel.events_dispatched":
                counters.get("kernel/events_dispatched", 0),
            "events.dropped": counters.get("hub/events_dropped", 0),
            "defenses.alarms": counters.get("campaign/alarms", 0),
            "defenses.blocked": counters.get("campaign/blocked", 0),
        }


class FleetBenign(FleetWorkload):
    """A job is the committed fleet benchmark's campaign (500 installs a
    shard, as in ``BENCH_fleet.json``), on the process backend with
    twice as many shards as workers."""

    name = "fleet-benign"
    why = ("attack-free campaigns on the process backend, more shards than "
           "workers: AIT, PMS, VFS, publish, spawn, transport and merge")
    ROTATION = 1

    def __init__(self, seed, workdir, scale=1.0):
        workers = default_workers()
        super().__init__(seed, workdir, scale, backend="process",
                         workers=workers, shards=2 * workers)

    def traced_phases(self):
        # Shards run in child processes, out of the wrappers' reach:
        # transport is timed from the parent's progress hooks on the
        # process backend, the in-shard layers on the serial backend.
        return [("process backend, transport and merge", [trace_engine], {}),
                *super().traced_phases()]


class FleetHijack(FleetWorkload):
    """A job is ``repro fleet``'s default campaign size (1000 installs,
    one shard per worker) with the attack and defense, on the serial
    backend."""

    name = "fleet-hijack"
    why = ("FileObserver attacker against DAPP, serial: EventHub, "
           "FileObserver and the defense carry the time, no pool")
    ROTATION = 1

    def __init__(self, seed, workdir, scale=1.0):
        shards = default_workers()
        super().__init__(seed, workdir, scale, attack="fileobserver",
                         defenses=("dapp",), backend="serial", shards=shards,
                         installs_per_shard=1000 // shards)

    def reference(self, slot: int) -> tuple:
        counters = super().reference(slot)
        # Every install is a hijack DAPP sees with 3 alarms (Section V-B).
        stats = dict(zip(CampaignStats.COUNTER_FIELDS, counters))
        installs = self.specs[slot].installs
        if not (stats["hijacks"] == installs
                and stats["alarms"] == 3 * installs):
            self.setup_ok = False
        return counters


class AnalysisWorkload(Workload):
    """Jobs are ``run_analysis`` calls; the check compares the merged
    stats and the Table II and IV counts with a one-shard, cache-free
    run of the same corpus made in set-up, plus the cache's hit count.

    A job is one shard of the committed analysis benchmark (6250 apps a
    shard in ``BENCH_analysis.json``; ``repro analyze`` on two workers
    gives 6375), on the serial backend.
    """

    unit = "app"
    shards = 1
    ROTATION = 1

    def __init__(self, seed, workdir, scale=1.0, apps=6250) -> None:
        super().__init__(seed, workdir, scale)
        self.apps = self.scaled(apps)

    def operations(self) -> int:
        return self.apps

    def spec(self, slot: int, cache_dir: Optional[str]) -> AnalysisSpec:
        return AnalysisSpec(corpus="play", apps=self.apps,
                            seed=self.variant_seed(slot),
                            cache_dir=cache_dir)

    @staticmethod
    def summary(stats) -> tuple:
        return (stats.identity_tuple(), sorted(table2_counts(stats).items()),
                sorted(table4_counts(stats).items()))

    def reference(self, slot: int) -> tuple:
        report = run_analysis(self.spec(slot, None), shards=1,
                              backend="serial")
        return self.summary(report.stats)

    def cache_dir(self, slot: int) -> str:
        raise NotImplementedError

    def run_job(self, index, tracer=None) -> JobOutput:
        slot = index % self.ROTATION
        hooks = Hooks(tracer)
        cache_dir = self.cache_dir(slot)
        started = _now()
        report = run_analysis(self.spec(slot, cache_dir), shards=self.shards,
                              backend="serial", progress=hooks)
        return JobOutput((slot, report),
                         (hooks.first_done or _now()) - started)

    def check(self, output: JobOutput) -> bool:
        slot, report = output.value
        return (self.summary(report.stats) == self.references[slot]
                and self.check_cache(report))

    def check_cache(self, report) -> bool:
        raise NotImplementedError

    def traced_phases(self):
        return [("all layers", [trace_engine, trace_analysis_path], {})]


class AnalysisCold(AnalysisWorkload):
    name = "analysis-cold"
    why = ("Play corpus, serial, into a fresh pack cache per job: parse, "
           "classify, redirect scan and cache writes")

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir, scale)
        self._jobs = 0
        self.last_dir = ""

    def setup(self) -> None:
        self.fill_apps = fill_scan_memo(self.seed)
        super().setup()

    def cache_dir(self, slot: int) -> str:
        self._jobs += 1
        self.last_dir = os.path.join(self.workdir, "cold", str(self._jobs))
        return self.last_dir

    def details(self) -> Dict[str, Any]:
        """The scan memo against its cap, and its hit share on one more
        (untimed) job."""
        original_memo = smali_mod._SCAN_MEMO
        original_scan = smali_mod._scan_line
        memo = _CountingMemo(original_memo)
        scans = [0]

        def counted_scan(line):
            scans[0] += 1
            return original_scan(line)

        smali_mod._SCAN_MEMO, smali_mod._scan_line = memo, counted_scan
        try:
            self.run_job(0)
        finally:
            smali_mod._SCAN_MEMO, smali_mod._scan_line = (original_memo,
                                                          original_scan)
        return {"scan_memo": {
            "lines": len(original_memo), "cap": smali_mod._MEMO_CAP,
            "filled_from_apps": self.fill_apps,
            "hit_share": 1.0 - scans[0] / max(memo.lookups, 1)}}

    def check_cache(self, report) -> bool:
        return report.cache_hits + report.cache_misses == self.apps

    def exact_counts(self) -> Dict[str, float]:
        report = self.run_job(0).value[1]
        return {
            "cache.hits": report.cache_hits,
            "cache.misses": report.cache_misses,
            "cache.segments": AnalysisCache(self.last_dir).segment_count,
            "cache.bytes_written": dir_bytes(self.last_dir),
        }


class AnalysisWarm(AnalysisWorkload):
    name = "analysis-warm"
    why = ("the same corpus served from a pack cache filled in set-up, 0 "
           "apps analyzed: corpus generation, sha256 keys, pack reads")

    def cache_dir(self, slot: int) -> str:
        return os.path.join(self.workdir, "warm", str(slot))

    def reference(self, slot: int) -> tuple:
        # The one-shard reference run is also the one that fills the cache.
        report = run_analysis(self.spec(slot, self.cache_dir(slot)),
                              shards=1, backend="serial")
        if report.cache_misses != self.apps:
            self.setup_ok = False
        return self.summary(report.stats)

    def check_cache(self, report) -> bool:
        return report.cache_misses == 0 and report.cache_hits == self.apps

    def exact_counts(self) -> Dict[str, float]:
        report = self.run_job(0).value[1]
        return {
            "cache.hits": report.cache_hits,
            "cache.misses": report.cache_misses,
            "cache.segments": AnalysisCache(self.cache_dir(0)).segment_count,
            "cache.bytes_written": 0,
        }


class ServeJobs(Workload):
    """Jobs are campaigns submitted to a ``repro serve`` daemon and
    watched to their ``done`` frame; the check compares the job's final
    counters with ``run_fleet`` of the same spec made in set-up.

    A job is a small campaign (12 installs a shard, two shards a
    worker), the traffic of many short interactive jobs, where per-job
    overhead dominates.  ``repro submit``'s default of 1000 installs
    took about 0.3 s a job on a 2-core host: some 50 jobs in a run,
    too few for a p90 with ten jobs beyond it.
    """

    name = "serve-jobs"
    unit = "job"
    why = ("one closed-loop client submitting small campaigns to a daemon "
           "with a warm pool: protocol, queue, journal, checkpoint, dispatch")
    trace_jobs = 64

    def __init__(self, seed, workdir, scale=1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.workers = default_workers()
        self.shards = 2 * self.workers
        self.specs = [CampaignSpec(installs=self.scaled(12) * self.shards,
                                   installer="amazon",
                                   seed=self.variant_seed(slot))
                      for slot in range(self.ROTATION)]
        #: name -> (daemon process, client); "plain" serves the timed
        #: and untraced jobs, "traced" the traced jobs of a traced run.
        self.daemons: Dict[str, tuple] = {}
        self.daemon_trace = os.path.join(workdir, "daemon-spans.tsv.gz")
        self.late_watches = 0

    def operations(self) -> int:
        return 1

    def start_daemon(self, name: str, trace_out: str = "") -> None:
        # A relative socket path keeps clear of the 108-byte sun_path limit
        # however deep the checkout is; daemon and client share the cwd.
        state = os.path.relpath(os.path.join(self.workdir, name))
        socket_path = os.path.join(state, "s.sock")
        command = [sys.executable, os.path.join(HERE, "serve_daemon.py"),
                   "--state-dir", state, "--socket", socket_path,
                   "--workers", str(self.workers)]
        if trace_out:
            command += ["--trace-out", trace_out]
        with open(os.path.join(self.workdir, f"{name}.log"), "ab") as log:
            daemon = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        client = ServeClient(socket_path=socket_path, timeout=60.0)
        self.daemons[name] = (daemon, client)
        client.wait_until_ready(timeout=60.0)

    def setup(self) -> None:
        self.start_daemon("plain")
        self.roots = [self.daemons["plain"][0].pid]
        super().setup()

    def reference(self, slot: int) -> Dict[str, int]:
        report = run_fleet(self.specs[slot], shards=1, backend="serial")
        return stats_counters(report.stats)

    def run_job(self, index, tracer=None) -> JobOutput:
        slot = index % self.ROTATION
        client = self.daemons["traced" if tracer is not None else "plain"][1]
        first: List[int] = []

        def on_frame(frame) -> None:
            if not first and frame.get("event") in ("shard", "done",
                                                   "failed", "cancelled"):
                first.append(_now())
                if frame.get("event") != "shard":
                    self.late_watches += 1

        started = _now()
        job = client.submit_campaign(self.specs[slot], shards=self.shards,
                                     label=f"bench-{index}")
        frames = client.watch(job["job_id"], on_frame=on_frame,
                              timeout=120.0)
        return JobOutput((slot, frames[-1]), first[0] - started)

    def check(self, output: JobOutput) -> bool:
        slot, frame = output.value
        return (frame.get("event") == "done"
                and frame["job"].get("summary") == self.references[slot])

    def details(self) -> Dict[str, Any]:
        # A watch that connects after the job's last shard sees no shard
        # frame; its first-shard time is then the terminal frame's.
        return {"late_watches": self.late_watches}

    def traced_phases(self):
        return [("client and daemon", [trace_client], {})]

    def begin_traced(self, tracer: Tracer) -> None:
        # The daemon's wrappers must be in place before it starts, so the
        # traced jobs go to a second, traced daemon with its own warm pool.
        self.start_daemon("traced", self.daemon_trace)
        for slot in range(self.ROTATION):
            if not self.check(self.run_job(slot, tracer=tracer)):
                self.setup_ok = False

    def end_traced(self, since_ns: int) -> Dict[str, Any]:
        self.stop_daemon("traced")
        with open(self.daemon_trace + ".samples", encoding="utf-8") as stream:
            samples = json.load(stream)
        # Warm-up jobs ran on the traced daemon too; keep the phase's own.
        return {"spans": since(read_spans(self.daemon_trace), since_ns),
                "samples": {name: [pair for pair in pairs
                                   if pair[0] >= since_ns]
                            for name, pairs in samples.items()},
                "state_bytes": dir_bytes(os.path.join(self.workdir,
                                                      "traced"))}

    def stop_daemon(self, name: str) -> None:
        daemon, client = self.daemons.pop(name)
        try:
            if daemon.poll() is None:
                client.shutdown()
            daemon.wait(timeout=60)
        except Exception:  # a hung or dead daemon is killed below
            pass
        if daemon.poll() is None:
            os.killpg(daemon.pid, signal.SIGKILL)
            daemon.wait()
        try:
            # Any pool worker the daemon left behind shares its group.
            os.killpg(daemon.pid, signal.SIGKILL)
        except OSError:
            pass

    def close(self) -> None:
        for name in list(self.daemons):
            self.stop_daemon(name)


WORKLOADS = {cls.name: cls for cls in
             (FleetBenign, FleetHijack, AnalysisCold, AnalysisWarm,
              ServeJobs)}
