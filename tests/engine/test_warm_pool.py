"""Warm pool: reuse, determinism, crash recovery, leak-free shutdown."""

import os
import time

import pytest

from repro.engine import executor as executor_module
from repro.engine.executor import (
    FleetExecutor,
    WarmPool,
    drain_queue,
    multiprocessing_usable,
)
from repro.engine.spec import CampaignSpec

needs_multiprocessing = pytest.mark.skipif(
    not multiprocessing_usable(),
    reason="multiprocessing unavailable in this environment")


def _alive_children(pids):
    """Which of ``pids`` still exist as live processes?"""
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except OSError:
            continue
        alive.append(pid)
    return alive


# -- drain helper -------------------------------------------------------------

@needs_multiprocessing
def test_drain_queue_sweeps_a_burst_in_one_pass():
    import multiprocessing

    result_queue = multiprocessing.get_context().Queue()
    for index in range(5):
        result_queue.put(index)
    time.sleep(0.1)  # let the feeder thread flush
    seen = []
    assert drain_queue(result_queue, seen.append, timeout=1.0) == 5
    assert seen == [0, 1, 2, 3, 4]
    result_queue.close()
    result_queue.join_thread()


@needs_multiprocessing
def test_drain_queue_returns_zero_on_an_empty_queue():
    import multiprocessing

    result_queue = multiprocessing.get_context().Queue()
    assert drain_queue(result_queue, lambda m: None, timeout=0.01) == 0
    result_queue.close()
    result_queue.join_thread()


# -- warm pool scheduling -----------------------------------------------------

def _drive(pool, spec, shards=4):
    """Run every shard of ``spec`` through ``pool``; results by index."""
    pending = list(spec.shard(shards))
    results = {}
    submitted = {}
    while pending or submitted:
        while pending and pool.has_idle():
            shard = pending.pop(0)
            pool.submit(shard.index, shard)
            submitted[shard.index] = shard
        for ticket, status, payload in pool.poll(timeout=5.0):
            assert status == "ok", (ticket, status, payload)
            submitted.pop(ticket)
            results[ticket] = payload
    return results


@needs_multiprocessing
def test_warm_pool_reuses_the_same_worker_processes():
    spec = CampaignSpec(installs=24, seed=7)
    with WarmPool(2) as pool:
        first = pool.worker_pids()
        _drive(pool, spec)
        _drive(pool, spec)
        assert pool.worker_pids() == first  # no respawn between runs
        assert pool.restarts == 0
        assert pool.tasks_done == 8


@needs_multiprocessing
def test_warm_pool_results_match_serial_execution():
    spec = CampaignSpec(installs=40, seed=7)
    serial = FleetExecutor(backend="serial").run(spec, shards=4)
    with WarmPool(2) as pool:
        results = _drive(pool, spec)
    assert sorted(results) == [0, 1, 2, 3]
    merged = results[0].stats
    for index in (1, 2, 3):
        merged = merged.merge(results[index].stats)
    assert merged.counter_tuple() == serial.stats.counter_tuple()
    assert all(result.backend == "process" for result in results.values())


@needs_multiprocessing
def test_warm_pool_close_leaves_no_processes_behind():
    pool = WarmPool(3)
    pids = list(pool.worker_pids().values())
    assert len(_alive_children(pids)) == 3
    pool.close()
    deadline = time.monotonic() + 5.0
    while _alive_children(pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _alive_children(pids) == []
    assert pool.closed
    pool.close()  # idempotent


@needs_multiprocessing
def test_warm_pool_restarts_a_dead_worker_and_reports_the_crash():
    # chaos crash in shard 0 kills the resident worker mid-task; the
    # pool must surface the crash (satellite: the worker-death sentinel
    # path) and respawn the slot so the pool stays at full strength.
    spec = CampaignSpec(installs=8, seed=7, chaos="crash:0")
    shard = list(spec.shard(2))[0]
    with WarmPool(1) as pool:
        before = pool.worker_pids()
        pool.submit(shard.index, shard)
        events = []
        deadline = time.monotonic() + 10.0
        while not events and time.monotonic() < deadline:
            events = pool.poll(timeout=1.0)
        assert len(events) == 1
        ticket, status, payload = events[0]
        assert ticket == 0
        assert status == "crash"
        assert payload == "worker crashed (exit code 13)"
        assert pool.restarts == 1
        assert pool.worker_pids() != before
        assert pool.has_idle()  # replacement is ready for work


@needs_multiprocessing
def test_warm_pool_reaps_a_hung_worker_on_timeout():
    spec = CampaignSpec(installs=8, seed=7, chaos="hang:0")
    shard = list(spec.shard(2))[0]
    with WarmPool(1) as pool:
        pool.submit(shard.index, shard)
        time.sleep(0.3)
        events = pool.reap_timeouts(0.1)
        assert [(t, s) for t, s, _ in events] == [(0, "timeout")]
        assert pool.restarts == 1
        assert pool.has_idle()


@needs_multiprocessing
def test_warm_pool_drops_a_result_from_an_attempt_it_gave_up_on():
    # The first attempt's result reaches the pipe, but the attempt is
    # reaped as a timeout before anyone polls; the retry reuses ticket 0
    # and hangs.  The leftover result must not pass for the retry's.
    done = CampaignSpec(installs=4, seed=7).shard(2)[0]
    hung = CampaignSpec(installs=4, seed=7, chaos="hang:0").shard(2)[0]
    with WarmPool(1) as pool:
        pool.submit(0, done)
        assert executor_module.wait_for_result(pool.result_queue, (), 10.0)
        time.sleep(0.2)  # let the whole message land
        assert [s for _, s, _ in pool.reap_timeouts(0.0)] == ["timeout"]
        pool.submit(0, hung)
        assert pool.poll(timeout=0.5) == []
        assert pool.busy()


def test_warm_pool_validates_worker_count():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        WarmPool(0)


# -- executor integration -----------------------------------------------------

@needs_multiprocessing
def test_warm_executor_matches_serial_and_reuses_workers():
    spec = CampaignSpec(installs=60, seed=7)
    serial = FleetExecutor(backend="serial").run(spec, shards=4)
    with FleetExecutor(workers=2, backend="process", warm=True) as fleet:
        first = fleet.run(spec, shards=4)
        pids = fleet._pool.worker_pids()
        second = fleet.run(spec, shards=4)
        assert fleet._pool.worker_pids() == pids
    assert first.stats.counter_tuple() == serial.stats.counter_tuple()
    assert second.stats.counter_tuple() == serial.stats.counter_tuple()
    assert {shard.backend for shard in first.shards} == {"process"}


@needs_multiprocessing
def test_warm_executor_survives_chaos_via_retry_and_fallback():
    spec = CampaignSpec(installs=24, seed=7, chaos="crash:1")
    serial = FleetExecutor(backend="serial").run(
        CampaignSpec(installs=24, seed=7))
    with FleetExecutor(workers=2, backend="process", warm=True,
                       max_retries=0) as fleet:
        report = fleet.run(spec, shards=3)
    assert report.stats.counter_tuple() == serial.stats.counter_tuple()
    assert report.counters["crashes"] >= 1
    assert report.counters["fallbacks"] == 1


@needs_multiprocessing
def test_executor_close_is_idempotent_and_releases_the_pool():
    fleet = FleetExecutor(workers=2, backend="process", warm=True)
    fleet.run(CampaignSpec(installs=8, seed=7), shards=2)
    pids = list(fleet._pool.worker_pids().values())
    fleet.close()
    assert fleet._pool is None
    deadline = time.monotonic() + 5.0
    while _alive_children(pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _alive_children(pids) == []
    fleet.close()  # second close is a no-op
    # a closed executor can still run (it rebuilds the pool lazily)
    report = fleet.run(CampaignSpec(installs=8, seed=7), shards=2)
    assert report.stats.runs == 8
    fleet.close()
