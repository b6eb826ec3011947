"""Tests for the fleet executor: backends, retries, timeouts, fallback."""

import pickle

import pytest

from repro.engine import executor as executor_module
from repro.engine.executor import (
    FleetExecutor,
    multiprocessing_usable,
    run_fleet,
    run_shard,
)
from repro.engine.progress import FleetProgress
from repro.engine.spec import CampaignSpec
from repro.errors import ReproError

needs_multiprocessing = pytest.mark.skipif(
    not multiprocessing_usable(),
    reason="multiprocessing unavailable in this environment")


class RecordingProgress(FleetProgress):
    def __init__(self):
        self.starts = []
        self.dones = []
        self.retries = []
        self.fleet = []

    def on_fleet_start(self, spec, shard_count, workers, backend):
        self.fleet.append((shard_count, workers, backend))

    def on_shard_start(self, shard, attempt):
        self.starts.append((shard.index, attempt))

    def on_shard_done(self, result, done, total):
        self.dones.append((result.shard_index, done, total))

    def on_shard_retry(self, shard, attempt, reason):
        self.retries.append((shard.index, attempt, reason))


def test_run_shard_executes_slice():
    shard = CampaignSpec(installs=6, seed=3).shard(2)[1]
    result = run_shard(shard)
    assert result.stats.runs == 3
    assert result.stats.clean_installs == 3
    assert (result.start, result.stop) == (3, 6)
    assert result.wall_seconds > 0


def test_serial_backend_runs_all_shards_with_progress():
    progress = RecordingProgress()
    report = run_fleet(CampaignSpec(installs=8, seed=3), shards=4,
                       backend="serial", progress=progress)
    assert report.backend == "serial"
    assert report.stats.runs == 8
    assert report.stats.clean_installs == 8
    assert progress.fleet == [(4, 1, "serial")]
    assert [d[0] for d in progress.dones] == [0, 1, 2, 3]
    assert progress.retries == []


def test_attack_fleet_counts_hijacks_and_blocks():
    spec = CampaignSpec(installs=6, installer="dtignite",
                        attack="fileobserver", seed=5)
    report = run_fleet(spec, shards=3, backend="serial")
    assert report.stats.hijacks == 6
    assert report.stats.hijack_rate == 1.0
    defended = CampaignSpec(installs=6, installer="dtignite",
                            attack="fileobserver", defenses=("fuse-dac",),
                            seed=5)
    dreport = run_fleet(defended, shards=3, backend="serial")
    assert dreport.stats.hijacks == 0
    assert dreport.stats.blocked >= 6
    assert dreport.stats.blocked_runs == 6


def test_auto_backend_with_one_worker_is_serial():
    report = run_fleet(CampaignSpec(installs=2, seed=1), shards=2, workers=1)
    assert report.backend == "serial"


def test_process_request_degrades_when_multiprocessing_unavailable(monkeypatch):
    monkeypatch.setattr(executor_module, "multiprocessing_usable",
                        lambda: False)
    progress = RecordingProgress()
    report = run_fleet(CampaignSpec(installs=4, seed=1), shards=2, workers=2,
                       backend="process", progress=progress)
    assert report.backend == "serial"
    assert report.stats.runs == 4
    assert progress.fleet == [(2, 1, "serial")]


def test_executor_validates_options():
    with pytest.raises(ReproError):
        FleetExecutor(backend="threads")
    with pytest.raises(ReproError):
        FleetExecutor(workers=0)
    with pytest.raises(ReproError):
        FleetExecutor(max_retries=-1)


def test_empty_campaign_is_fine():
    report = run_fleet(CampaignSpec(installs=0), shards=2, backend="serial")
    assert report.stats.runs == 0
    assert report.stats == run_fleet(
        CampaignSpec(installs=0), shards=1, backend="serial").stats


@needs_multiprocessing
def test_process_backend_matches_serial():
    spec = CampaignSpec(installs=8, seed=13, defenses=("dapp",))
    serial = run_fleet(spec, shards=4, backend="serial")
    parallel = run_fleet(spec, shards=4, workers=2, backend="process")
    assert parallel.backend == "process"
    assert parallel.stats == serial.stats


@needs_multiprocessing
def test_crashed_worker_is_retried_then_falls_back_to_serial():
    progress = RecordingProgress()
    spec = CampaignSpec(installs=8, seed=5, chaos="crash:1")
    report = run_fleet(spec, shards=4, workers=2, max_retries=1,
                       progress=progress)
    reference = run_fleet(CampaignSpec(installs=8, seed=5), shards=4,
                          backend="serial")
    assert report.stats == reference.stats
    crashed = [s for s in report.shards if s.shard_index == 1][0]
    assert crashed.attempts == 3  # 2 pool attempts + 1 serial fallback
    assert crashed.backend == "serial-fallback"
    assert [r[0] for r in progress.retries] == [1, 1]
    assert "crashed" in progress.retries[0][2]
    healthy = [s for s in report.shards if s.shard_index != 1]
    assert all(s.backend == "process" and s.attempts == 1 for s in healthy)


@needs_multiprocessing
def test_hung_worker_times_out_and_falls_back():
    progress = RecordingProgress()
    spec = CampaignSpec(installs=4, seed=5, chaos="hang:0")
    report = run_fleet(spec, shards=2, workers=2, max_retries=0,
                       shard_timeout=1.0, progress=progress)
    reference = run_fleet(CampaignSpec(installs=4, seed=5), shards=2,
                          backend="serial")
    assert report.stats == reference.stats
    hung = [s for s in report.shards if s.shard_index == 0][0]
    assert hung.backend == "serial-fallback"
    assert any("timeout" in r[2] for r in progress.retries)


@needs_multiprocessing
def test_worker_exception_is_reported_and_retried():
    progress = RecordingProgress()
    spec = CampaignSpec(installs=4, seed=5, chaos="error:1")
    report = run_fleet(spec, shards=2, workers=2, max_retries=0,
                       progress=progress)
    reference = run_fleet(CampaignSpec(installs=4, seed=5), shards=2,
                          backend="serial")
    assert report.stats == reference.stats
    assert any("RuntimeError" in r[2] for r in progress.retries)


@needs_multiprocessing
def test_one_shot_process_run_starts_one_process_per_worker(monkeypatch):
    from multiprocessing.process import BaseProcess

    started = []
    original = BaseProcess.start

    def counting_start(process):
        started.append(process.name)
        original(process)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    report = run_fleet(CampaignSpec(installs=16, seed=3), shards=8,
                       workers=2, backend="process")
    assert report.stats.runs == 16
    assert len(started) == 2


@needs_multiprocessing
def test_a_raising_progress_hook_leaves_no_live_child():
    import multiprocessing
    import time

    class Exploding(FleetProgress):
        def on_shard_done(self, result, done, total):
            raise RuntimeError("hook failed")

    # shard 1 hangs, so its worker is still busy when the hook raises:
    # the pool must kill it rather than wait for it.
    spec = CampaignSpec(installs=16, seed=3, chaos="hang:1")
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="hook failed"):
        run_fleet(spec, shards=8, workers=2, backend="process",
                  progress=Exploding())
    assert time.monotonic() - started < 4.0
    assert multiprocessing.active_children() == []


# -- blocking result wait (replaces fixed-interval polling) -------------------

def _exit_immediately():  # worker target; must be module-level (spawn-safe)
    pass


@needs_multiprocessing
def test_wait_for_result_wakes_immediately_on_a_queued_message():
    import multiprocessing
    import time

    context = multiprocessing.get_context()
    result_queue = context.Queue()
    result_queue.put((0, "ok", "payload"))
    started = time.perf_counter()
    assert executor_module.wait_for_result(result_queue, (), timeout=5.0)
    elapsed = time.perf_counter() - started
    # The old scheduler polled at a fixed 50ms interval; a ready result
    # must wake the blocking wait in well under one poll tick.
    assert elapsed < 0.05
    assert result_queue.get(timeout=1.0) == (0, "ok", "payload")
    result_queue.close()
    result_queue.join_thread()


@needs_multiprocessing
def test_wait_for_result_wakes_on_worker_death_without_a_message():
    import multiprocessing
    import time

    context = multiprocessing.get_context()
    result_queue = context.Queue()
    process = context.Process(target=_exit_immediately)
    process.start()
    started = time.perf_counter()
    woke_for_result = executor_module.wait_for_result(
        result_queue, [process], timeout=5.0)
    elapsed = time.perf_counter() - started
    process.join()
    result_queue.close()
    result_queue.join_thread()
    # The death sentinel, not the timeout, ended the wait.
    assert woke_for_result is False
    assert elapsed < 5.0


@needs_multiprocessing
def test_wait_for_result_times_out_when_nothing_happens():
    import multiprocessing
    import time

    context = multiprocessing.get_context()
    result_queue = context.Queue()
    started = time.perf_counter()
    assert executor_module.wait_for_result(
        result_queue, (), timeout=0.05) is False
    assert time.perf_counter() - started >= 0.04
    result_queue.close()
    result_queue.join_thread()


def test_wait_for_result_degrades_when_the_queue_has_no_pipe():
    class OpaqueQueue:
        pass

    # No ``_reader`` to sleep on: report readable so the caller falls
    # back to its own timed ``get``.
    assert executor_module.wait_for_result(OpaqueQueue(), (), timeout=0.0)


# -- shard result size -------------------------------------------------------

def test_shard_result_pickle_does_not_grow_with_installs():
    """A shard result carries counters, never one record per install.

    The per-install record is the trace, so a 500-install shard (the
    benchmark's fleet shard) pickles to about the size of a 12-install
    one (a serve job's shard).
    """
    def pickled_size(installs):
        shard = CampaignSpec(installs=installs, seed=3).shard(1)[0]
        result = run_shard(shard)
        assert result.stats.runs == installs
        return len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))

    assert pickled_size(500) - pickled_size(12) < 1024
