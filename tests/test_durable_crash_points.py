"""Crash-point injection over every store that writes through repro.durable.

In the style of ALICE (Pillai et al., "All File Systems Are Not Created
Equal", OSDI 2014).  Each scenario runs once with the operation hooks of
:mod:`repro.durable` replaced by versions that list every write, fsync,
rename and truncate.  It then reruns once per listed operation and
crashes right after it; a write is also rerun torn at half its length.
After each crash, recovery runs and the store's contract is checked:

- shard journal: a 4-shard serial fleet resumed through a fresh
  ``ShardJournal`` merges to stats bit-identical to an uninterrupted
  run, and restores every shard whose ``record`` returned;
- job journal: every submit whose ``append_journal`` returned is still
  in ``read_journal()``, a result is either absent or whole, and a
  submit appended after recovery survives the next reopen;
- pack cache: every ``get`` returns the exact payload put or None, a
  flush that returned is served in full, and a recovery flush works;
- flight recorder: ``seq`` values stay continuous across the reload.

The model is a process crash: every operation that returned has reached
the kernel, and nothing after the crash point has.  Page-cache loss and
reordering on power failure are not modelled, so this proves framing,
ordering and recovery, not where the fsyncs sit.
"""

import contextlib
import hashlib
import os

import pytest

from repro import durable
from repro.analysis.cache import PackStore
from repro.engine import CampaignSpec, FleetExecutor, NullProgress
from repro.obs.runtime import FlightRecorder
from repro.serve.checkpoint import JobStore, ShardJournal

_HOOKS = ("_write", "_fsync", "_replace", "_truncate")
_REAL = {name: getattr(durable, name) for name in _HOOKS}


class _Crash(BaseException):
    """The process dies here (not an Exception: no store may catch it)."""


class _Shim:
    """Lists every hooked operation; crashes right after one of them."""

    def __init__(self, crash_at=None, tear=False):
        self.ops = []
        self.crash_at = crash_at
        self.tear = tear

    def hook(self, name):
        real = _REAL[name]

        def hooked(*args):
            self.ops.append(name)
            if len(self.ops) - 1 != self.crash_at:
                return real(*args)
            if self.tear:
                fd, data = args
                real(fd, bytes(data)[:len(data) // 2])
            else:
                real(*args)
            raise _Crash(f"crash after {name} #{self.crash_at}")

        return hooked


@contextlib.contextmanager
def _installed(shim):
    for name in _HOOKS:
        setattr(durable, name, shim.hook(name))
    try:
        yield shim
    finally:
        for name in _HOOKS:
            setattr(durable, name, _REAL[name])


def _crash_everywhere(scenario, tmp_path):
    """Run ``scenario`` crashed at every point; the reference op list."""
    with _installed(_Shim()) as reference:
        scenario.run(tmp_path / "reference")
    points = [(index, False) for index in range(len(reference.ops))]
    points += [(index, True) for index, name in enumerate(reference.ops)
               if name == "_write"]
    for index, tear in points:
        root = tmp_path / f"crash-{index}{'-torn' if tear else ''}"
        with _installed(_Shim(crash_at=index, tear=tear)):
            with pytest.raises(_Crash):
                scenario.run(root)
        scenario.check(root)
    return reference.ops


# -- shard journal ----------------------------------------------------------

FLEET_SPEC = CampaignSpec(installs=16, seed=7, installer="dtignite",
                          attack="fileobserver")


def _fleet(checkpoint=None):
    return FleetExecutor(backend="serial", progress=NullProgress()).run(
        FLEET_SPEC, shards=4, checkpoint=checkpoint)


class _Counting:
    """Checkpoint wrapper counting the ``record`` calls that returned."""

    def __init__(self, journal):
        self.journal = journal
        self.recorded = 0

    def restore(self, spec, shard_count):
        return self.journal.restore(spec, shard_count)

    def record(self, result):
        self.journal.record(result)
        self.recorded += 1


class FleetScenario:
    def __init__(self):
        self.baseline = _fleet()

    def run(self, root):
        self.checkpoint = _Counting(ShardJournal(root, FLEET_SPEC, 4))
        _fleet(self.checkpoint)

    def check(self, root):
        recorded = self.checkpoint.recorded
        resumed = _fleet(ShardJournal(root, FLEET_SPEC, 4))
        assert resumed.counters["restored"] in (recorded, recorded + 1)
        assert (resumed.stats.counter_tuple()
                == self.baseline.stats.counter_tuple())
        for ours, theirs in zip(resumed.shards, self.baseline.shards):
            assert ours.stats.counter_tuple() == theirs.stats.counter_tuple()
        journal = ShardJournal(root, FLEET_SPEC, 4)
        assert journal.completed_indices() == [0, 1, 2, 3]


def test_shard_journal_resumes_bit_identically_after_any_crash(tmp_path):
    ops = _crash_everywhere(FleetScenario(), tmp_path)
    assert set(ops) == {"_write", "_fsync"}  # durable appends only


# -- job journal ------------------------------------------------------------

RESULT = {"job_id": "job-000002", "state": "done", "stats": {"runs": 16}}


def _submit(job_id):
    return {"event": "submit", "job_id": job_id}


class JobJournalScenario:
    """Submits around a torn tail (an earlier crash), then a result."""

    def run(self, root):
        self.acked = []
        self.result_written = False
        store = JobStore(root)
        store.append_journal(_submit("job-000001"))
        self.acked.append("job-000001")
        torn = durable.frame(b'{"event":"submit","job_id":"job-torn"}')
        with open(store.journal_path, "ab") as handle:
            handle.write(torn[:len(torn) // 2])
        for number in (2, 3, 4):
            store.append_journal(_submit(f"job-{number:06d}"))
            self.acked.append(f"job-{number:06d}")
        store.write_result("job-000002", RESULT)
        self.result_written = True

    def check(self, root):
        store = JobStore(root)
        ids = [record["job_id"] for record in store.read_journal()]
        assert ids[:len(self.acked)] == self.acked
        assert len(ids) <= len(self.acked) + 1
        assert "job-torn" not in ids
        result = store.read_result("job-000002")
        assert result == RESULT if self.result_written else (
            result in (None, RESULT))
        store.append_journal(_submit("job-after"))
        reread = [record["job_id"]
                  for record in JobStore(root).read_journal()]
        assert reread == ids + ["job-after"]


def test_job_journal_never_loses_an_acknowledged_submit(tmp_path):
    ops = _crash_everywhere(JobJournalScenario(), tmp_path)
    assert set(ops) == {"_write", "_fsync", "_truncate", "_replace"}


# -- pack cache -------------------------------------------------------------

def _key(number):
    return hashlib.sha256(f"app-{number}".encode()).hexdigest()


PAYLOADS = {_key(number): {"key": _key(number), "verdict": number % 3,
                           "urls": [f"http://cdn/{number}"] * (number % 4)}
            for number in range(12)}
BATCHES = (sorted(PAYLOADS)[:7], sorted(PAYLOADS)[7:])


class PackScenario:
    def run(self, root):
        self.flushed = set()
        store = PackStore(str(root))
        for batch in BATCHES:
            for key in batch:
                store.put(key, PAYLOADS[key])
            store.flush()
            self.flushed.update(batch)
        store.close()

    def _check_reads(self, root):
        store = PackStore(str(root))
        try:
            for key, payload in PAYLOADS.items():
                got = store.get(key)
                assert got is None or got == payload
                if key in self.flushed:
                    assert got == payload
            return store.segment_count
        finally:
            store.close()

    def check(self, root):
        assert self._check_reads(root) <= len(BATCHES)
        for name in os.listdir(root):  # the rebuild path sees the same
            if name.endswith(".idx"):
                os.unlink(os.path.join(root, name))
        self._check_reads(root)
        store = PackStore(str(root))
        for key, payload in PAYLOADS.items():
            if store.get(key) is None:
                store.put(key, payload)
        store.flush()
        store.close()
        store = PackStore(str(root))
        try:
            assert all(store.get(key) == payload
                       for key, payload in PAYLOADS.items())
        finally:
            store.close()


def test_pack_cache_serves_exact_payloads_or_misses_after_any_crash(
        tmp_path):
    ops = _crash_everywhere(PackScenario(), tmp_path)
    assert set(ops) == {"_write", "_replace"}  # best-effort: no fsync


# -- flight recorder --------------------------------------------------------

class FlightScenario:
    """Enough events to compact a capacity-2 sidecar once."""

    def run(self, root):
        root.mkdir()
        self.returned = 0
        flight = FlightRecorder(capacity=2, path=root / "flight.log")
        for index in range(20):
            flight.record("tick", index=index)
            self.returned += 1

    def check(self, root):
        path = root / "flight.log"
        seqs = [event["seq"]
                for event in FlightRecorder(capacity=2, path=path).events()]
        last = seqs[-1] if seqs else 0
        assert last in (self.returned, self.returned + 1)
        assert seqs == list(range(last - len(seqs) + 1, last + 1))
        event = FlightRecorder(capacity=2, path=path).record("recover")
        assert event["seq"] == last + 1
        reloaded = FlightRecorder(capacity=2, path=path).events()
        assert [e["seq"] for e in reloaded] == (seqs + [last + 1])[-2:]


def test_flight_sequence_stays_continuous_after_any_crash(tmp_path):
    ops = _crash_everywhere(FlightScenario(), tmp_path)
    assert set(ops) == {"_write", "_replace"}  # best-effort: no fsync
