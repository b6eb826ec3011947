"""Kill/resume determinism: the checkpoint journal's acceptance tests.

The contract: a campaign killed partway through and resumed from its
shard journal produces **bit-identical** merged stats and
**byte-identical** trace JSONL to an uninterrupted run of the same
seed.  Proven here three ways:

- against the committed goldens (``tests/engine/golden/``), so resume
  output is pinned to the exact bytes recorded before the serve
  subsystem existed;
- on the 2000-install seed-7 reference fleet (the bench baseline),
  interrupted at several different points;
- through the daemon's recovery path (journal replay + re-enqueue).
"""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.engine import CampaignSpec, FleetExecutor, NullProgress
from repro.engine.executor import multiprocessing_usable
from repro.obs import write_trace_jsonl
from repro.serve.checkpoint import ShardJournal

GOLDEN_DIR = (pathlib.Path(__file__).parent.parent
              / "engine" / "golden")
GOLDEN_TRACE = GOLDEN_DIR / "fleet_s7x4.jsonl"
GOLDEN_METRICS = GOLDEN_DIR / "fleet_s7x4_metrics.json"

#: The bench reference fleet (tools/bench.py) — 2000 installs, seed 7.
REFERENCE_SPEC = CampaignSpec(installs=2000, seed=7)
REFERENCE_SHARDS = 4


class _KillAfter:
    """Checkpoint wrapper that dies after recording ``after`` shards.

    Deterministic stand-in for ``kill -9`` mid-campaign: the journal
    holds exactly ``after`` completed shards, the run never finishes.
    """

    def __init__(self, journal: ShardJournal, after: int) -> None:
        self.journal = journal
        self.after = after
        self.recorded = 0

    def restore(self, spec, shard_count):
        return self.journal.restore(spec, shard_count)

    def record(self, result) -> None:
        self.journal.record(result)
        self.recorded += 1
        if self.recorded >= self.after:
            raise KeyboardInterrupt("simulated kill")


def _run(spec, shards, checkpoint=None):
    return FleetExecutor(backend="serial", progress=NullProgress()).run(
        spec, shards=shards, checkpoint=checkpoint)


def _kill_then_resume(spec, shards, kill_after, tmp_path):
    """One interrupted run + one resumed run; returns the final report."""
    journal_dir = tmp_path / f"journal-{kill_after}"
    with pytest.raises(KeyboardInterrupt):
        _run(spec, shards,
             checkpoint=_KillAfter(ShardJournal(journal_dir, spec, shards),
                                   kill_after))
    journal = ShardJournal(journal_dir, spec, shards)
    assert journal.restore(spec, shards) != {}
    return _run(spec, shards, checkpoint=journal)


def test_resumed_golden_fleet_is_byte_identical(tmp_path):
    spec = CampaignSpec(installs=200, seed=7, observe=True)
    report = _kill_then_resume(spec, 4, kill_after=2, tmp_path=tmp_path)
    assert report.counters["restored"] == 2
    current = tmp_path / "resumed.jsonl"
    write_trace_jsonl(str(current), report.trace_records())
    assert current.read_bytes() == GOLDEN_TRACE.read_bytes()
    rendered = json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"
    assert rendered == GOLDEN_METRICS.read_text(encoding="utf-8")


@pytest.mark.parametrize("kill_after", [1, 3])
def test_reference_fleet_resumes_bit_identically(tmp_path, kill_after):
    baseline = _run(REFERENCE_SPEC, REFERENCE_SHARDS)
    resumed = _kill_then_resume(REFERENCE_SPEC, REFERENCE_SHARDS,
                                kill_after=kill_after, tmp_path=tmp_path)
    assert resumed.counters["restored"] == kill_after
    assert (resumed.stats.counter_tuple()
            == baseline.stats.counter_tuple())
    assert len(resumed.shards) == len(baseline.shards)
    for ours, theirs in zip(resumed.shards, baseline.shards):
        assert ours.stats.counter_tuple() == theirs.stats.counter_tuple()


def test_a_completed_journal_resumes_without_rerunning(tmp_path):
    spec = CampaignSpec(installs=100, seed=7)
    journal = ShardJournal(tmp_path / "full", spec, 4)
    baseline = _run(spec, 4, checkpoint=journal)
    resumed = _run(spec, 4, checkpoint=ShardJournal(tmp_path / "full",
                                                    spec, 4))
    assert resumed.counters["restored"] == 4
    assert resumed.stats.counter_tuple() == baseline.stats.counter_tuple()


@pytest.mark.skipif(not multiprocessing_usable(),
                    reason="multiprocessing unavailable in this environment")
def test_resumed_cli_fleet_prints_the_uninterrupted_header(tmp_path, capsys):
    args = ["fleet", "--installs", "400", "--shards", "8", "--workers", "2",
            "--backend", "process", "--seed", "3", "--quiet"]
    assert main(args) == 0
    clean = capsys.readouterr().out.splitlines()
    checkpoint = tmp_path / "ck"
    assert main([*args, "--checkpoint", str(checkpoint)]) == 0
    capsys.readouterr()
    log = checkpoint / "shards.log"
    log.write_bytes(log.read_bytes()[:-7])  # tear the last shard's frame
    assert main([*args, "--checkpoint", str(checkpoint)]) == 0
    resumed = capsys.readouterr().out.splitlines()
    assert "  resumed    : 7 shard(s) restored from checkpoint" in resumed
    # one shard left to run, yet the header names the run's layout
    assert resumed[:8] == clean[:8]


def test_daemon_recovery_resumes_a_killed_job(tmp_path):
    """A daemon killed mid-job re-enqueues it and resumes the shards."""
    from repro.serve.daemon import CampaignService
    from repro.serve.protocol import (
        parse_submission,
        stats_counters,
        submit_campaign_request,
    )

    spec = CampaignSpec(installs=120, seed=7, observe=True)
    first = CampaignService(tmp_path / "state", workers=1,
                            backend="serial")
    job = first.submit(parse_submission(
        submit_campaign_request(spec, shards=4, label="victim")))
    claimed = first.queue.pop()  # scheduler claimed it...
    # ...and the daemon dies mid-run: two shards are already journaled.
    journal = ShardJournal(first.store.checkpoint_dir(claimed.job_id),
                           spec, 4)
    partial = _run(spec, 4)
    for shard in partial.shards[:2]:
        journal.record(shard)
    first.close()

    second = CampaignService(tmp_path / "state", workers=1,
                             backend="serial")
    try:
        assert second.recover() == 1
        revived = second.try_pop()
        assert revived.job_id == job.job_id
        assert revived.spec == spec
        second.execute(revived)
        assert revived.state == "done"
        assert revived.counters["restored"] == 2
        baseline = _run(spec, 4)
        assert revived.summary == stats_counters(baseline.stats)
        # the archived trace matches an uninterrupted run's, byte for byte
        archived = second.store.trace_path(revived.job_id)
        fresh = tmp_path / "fresh.jsonl"
        write_trace_jsonl(str(fresh), baseline.trace_records())
        assert archived.read_bytes() == fresh.read_bytes()
    finally:
        second.close()
