"""Shard journal and job store: durability, verification, refusal."""

import json

import pytest

from repro.engine import FleetExecutor, NullProgress
from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.serve.checkpoint import JobStore, ShardJournal, job_key


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


def test_corrupt_payload_is_dropped_not_merged(tmp_path):
    spec = _spec()
    results = _shard_results(spec)
    journal = ShardJournal(tmp_path, spec, 4)
    journal.record(results[0])
    journal.record(results[1])
    shard_file = next(tmp_path.glob("shard-00000-*.bin"))
    shard_file.write_bytes(b"garbage")  # bit rot on shard 0
    restored = ShardJournal(tmp_path, spec, 4).restore(spec, 4)
    assert sorted(restored) == [1]  # shard 0 re-runs, never merges garbage


def test_missing_payload_is_dropped_not_merged(tmp_path):
    spec = _spec()
    results = _shard_results(spec)
    journal = ShardJournal(tmp_path, spec, 4)
    journal.record(results[0])
    next(tmp_path.glob("shard-00000-*.bin")).unlink()
    assert ShardJournal(tmp_path, spec, 4).restore(spec, 4) == {}


def test_journal_refuses_a_different_campaign(tmp_path):
    spec = _spec()
    journal = ShardJournal(tmp_path, spec, 4)
    journal.record(_shard_results(spec)[0])
    other = _spec(seed=8)
    with pytest.raises(ReproError, match="different campaign"):
        ShardJournal(tmp_path, other, 4)._read_manifest()
    with pytest.raises(ReproError, match="different campaign"):
        journal.restore(other, 4)
    # a different shard layout is a different campaign too
    assert job_key(spec, 4) != job_key(spec, 8)


def test_journal_refuses_a_future_version(tmp_path):
    spec = _spec()
    journal = ShardJournal(tmp_path, spec, 4)
    journal.record(_shard_results(spec)[0])
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ReproError, match="journal version"):
        ShardJournal(tmp_path, spec, 4).restore(spec, 4)


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
    assert store.journal_path.name == "jobs.jsonl"
    assert store.default_socket_path().name == "serve.sock"
    payload = {"job_id": "job-000001", "state": "done"}
    store.write_result("job-000001", payload)
    assert store.read_result("job-000001") == payload
    assert store.read_result("job-000002") is None
    for bad in ("", "../escape", ".hidden", "a/b"):
        with pytest.raises(ReproError, match="invalid job id"):
            store.job_dir(bad)


def test_job_journal_survives_a_torn_final_line(tmp_path):
    store = JobStore(tmp_path)
    store.append_journal({"event": "submit", "job_id": "job-000001"})
    store.append_journal({"event": "end", "job_id": "job-000001"})
    with open(store.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "sub')  # killed mid-append
    records = store.read_journal()
    assert [r["event"] for r in records] == ["submit", "end"]


def test_job_journal_append_after_a_torn_line_is_not_swallowed(tmp_path):
    store = JobStore(tmp_path)
    store.append_journal({"event": "submit", "job_id": "job-000001"})
    with open(store.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "sub')  # killed mid-append
    # The restarted daemon acknowledges a new submit: it must survive
    # the next restart's read.
    store.append_journal({"event": "submit", "job_id": "job-000002"})
    records = store.read_journal()
    assert [r["job_id"] for r in records] == ["job-000001", "job-000002"]
