"""Shard journal and job store: durability, verification, refusal."""

import json

import pytest

from repro.durable import RecordLog, frame, iter_frames
from repro.engine import FleetExecutor, NullProgress
from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.serve.checkpoint import (
    JOURNAL_VERSION,
    JobStore,
    ShardJournal,
    job_key,
)


def _spec(installs=20, seed=7):
    return CampaignSpec(installs=installs, seed=seed)


def _shard_results(spec, shards=4):
    report = FleetExecutor(backend="serial",
                           progress=NullProgress()).run(spec, shards=shards)
    return report.shards


def test_record_then_restore_round_trips_results(tmp_path):
    spec = _spec()
    results = _shard_results(spec)
    journal = ShardJournal(tmp_path, spec, 4)
    for result in results[:2]:
        journal.record(result)
    assert journal.completed_indices() == [0, 1]
    restored = ShardJournal(tmp_path, spec, 4).restore(spec, 4)
    assert sorted(restored) == [0, 1]
    for index in (0, 1):
        assert (restored[index].stats.counter_tuple()
                == results[index].stats.counter_tuple())
        assert restored[index].start == results[index].start
        assert restored[index].stop == results[index].stop


def test_restore_of_an_empty_directory_is_empty(tmp_path):
    spec = _spec()
    assert ShardJournal(tmp_path, spec, 4).restore(spec, 4) == {}


def _frame_ends(path):
    """End offset of every intact frame in the log at ``path``."""
    return [end for _payload, end in iter_frames(path.read_bytes())]


def test_corrupt_payload_is_dropped_not_merged(tmp_path):
    spec = _spec()
    results = _shard_results(spec)
    journal = ShardJournal(tmp_path, spec, 4)
    journal.record(results[0])
    journal.record(results[1])
    log = tmp_path / "shards.log"
    header_end, shard0_end, _shard1_end = _frame_ends(log)
    blob = bytearray(log.read_bytes())
    blob[shard0_end - 1] ^= 0xFF  # bit rot in shard 0's record
    log.write_bytes(bytes(blob))
    restored = ShardJournal(tmp_path, spec, 4).restore(spec, 4)
    assert sorted(restored) == [1]  # shard 0 re-runs, never merges garbage


def test_missing_payload_is_dropped_not_merged(tmp_path):
    # A truncated log (killed mid-append) loses only its tail.
    spec = _spec()
    results = _shard_results(spec)
    journal = ShardJournal(tmp_path, spec, 4)
    journal.record(results[0])
    journal.record(results[1])
    log = tmp_path / "shards.log"
    log.write_bytes(log.read_bytes()[:-7])
    resumed = ShardJournal(tmp_path, spec, 4)
    assert sorted(resumed.restore(spec, 4)) == [0]
    resumed.record(results[2])  # the torn tail is cut, not built on
    assert ShardJournal(tmp_path, spec, 4).completed_indices() == [0, 2]


def test_journal_refuses_a_different_campaign(tmp_path):
    spec = _spec()
    journal = ShardJournal(tmp_path, spec, 4)
    journal.record(_shard_results(spec)[0])
    other = _spec(seed=8)
    with pytest.raises(ReproError, match="different campaign"):
        ShardJournal(tmp_path, other, 4).completed_indices()
    with pytest.raises(ReproError, match="different campaign"):
        journal.restore(other, 4)
    with pytest.raises(ReproError, match="different campaign"):
        ShardJournal(tmp_path, other, 4).record(_shard_results(other)[0])
    # a different shard layout is a different campaign too
    assert job_key(spec, 4) != job_key(spec, 8)


def test_journal_refuses_a_future_version(tmp_path):
    spec = _spec()
    header = {"version": 999, "job_key": job_key(spec, 4), "shards": 4}
    RecordLog(tmp_path / "shards.log", durable=False).append(
        json.dumps(header).encode())
    with pytest.raises(ReproError, match="journal version"):
        ShardJournal(tmp_path, spec, 4).restore(spec, 4)


def test_old_layouts_are_refused_at_the_boundary(tmp_path):
    spec = _spec()
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(ReproError, match="manifest.json") as caught:
        ShardJournal(tmp_path, spec, 4).restore(spec, 4)
    assert f"version {JOURNAL_VERSION}" in str(caught.value)
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "jobs.jsonl").write_text("")
    with pytest.raises(ReproError, match="jobs.jsonl") as caught:
        JobStore(tmp_path / "state")
    assert f"version {JOURNAL_VERSION}" in str(caught.value)


def test_record_validates_the_shard_index(tmp_path):
    spec = _spec()
    result = _shard_results(spec)[3]
    journal = ShardJournal(tmp_path, spec, 2)  # only indices 0..1 fit
    with pytest.raises(ReproError, match="outside the journal"):
        journal.record(result)
    with pytest.raises(ReproError, match="shard count"):
        ShardJournal(tmp_path, spec, 0)


def test_job_store_layout_and_result_round_trip(tmp_path):
    store = JobStore(tmp_path / "state")
    assert store.journal_path.name == "jobs.log"
    assert store.default_socket_path().name == "serve.sock"
    payload = {"job_id": "job-000001", "state": "done"}
    store.write_result("job-000001", payload)
    assert store.read_result("job-000001") == payload
    assert store.read_result("job-000002") is None
    for bad in ("", "../escape", ".hidden", "a/b"):
        with pytest.raises(ReproError, match="invalid job id"):
            store.job_dir(bad)


def _tear(path):
    """Append half a frame: a writer killed mid-append."""
    torn = frame(b'{"event":"submit","job_id":"job-torn"}')
    with open(path, "ab") as handle:
        handle.write(torn[:len(torn) // 2])


def test_job_journal_survives_a_torn_final_line(tmp_path):
    store = JobStore(tmp_path)
    store.append_journal({"event": "submit", "job_id": "job-000001"})
    store.append_journal({"event": "end", "job_id": "job-000001"})
    _tear(store.journal_path)
    records = JobStore(tmp_path).read_journal()
    assert [r["event"] for r in records] == ["submit", "end"]


def test_job_journal_append_after_a_torn_line_is_not_swallowed(tmp_path):
    store = JobStore(tmp_path)
    store.append_journal({"event": "submit", "job_id": "job-000001"})
    _tear(store.journal_path)
    # The restarted daemon acknowledges a new submit: it must survive
    # the next restart's read.
    JobStore(tmp_path).append_journal(
        {"event": "submit", "job_id": "job-000002"})
    records = JobStore(tmp_path).read_journal()
    assert [r["job_id"] for r in records] == ["job-000001", "job-000002"]
