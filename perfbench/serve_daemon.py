"""Run the campaign daemon, optionally with the benchmark's wrappers.

    python3 perfbench/serve_daemon.py --state-dir D --socket S \\
        --workers N [--trace-out spans.tsv.gz]

Without ``--trace-out`` this is ``repro serve --backend process``.  With
it, the daemon-side layers are wrapped before the daemon starts and the
spans are written to the file when it shuts down: queue wait (submit to
execute), the job's execution, ``FleetExecutor.run``, warm-pool
dispatch and arrival, the merge, and the checkpoint and journal writes.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.engine import FleetExecutor, FleetReport, WarmPool  # noqa: E402
from repro.serve.checkpoint import JobStore, ShardJournal  # noqa: E402
from repro.serve.daemon import CampaignService, run_daemon  # noqa: E402

from tracer import WORKER_BUSY, Tracer  # noqa: E402

_now = time.perf_counter_ns


def install(tracer: Tracer) -> None:
    """Wrap the daemon-side layers (see the module docstring)."""
    import multiprocessing.process as mp_process

    submitted = {}
    dispatched = {}

    def on_submit(tracer, job, args) -> None:
        submitted[job.job_id] = _now()

    tracer.patch_method(CampaignService, "submit", "serve.daemon",
                        on_result=on_submit)
    traced_execute = tracer.wrap("serve.daemon", "CampaignService.execute",
                                 CampaignService.execute)

    def execute(self, job):
        start = _now()
        tracer.record("queue_wait", "serve.queue",
                      submitted.pop(job.job_id, start), start,
                      rid=job.job_id)
        tracer.request = job.job_id
        return traced_execute(self, job)

    tracer.patch_attr(CampaignService, "execute", execute)
    tracer.patch_method(FleetExecutor, "run", "engine.executor")
    tracer.patch_method(FleetReport, "from_shards", "engine.merge")

    def on_dispatch(tracer, value, args) -> None:
        dispatched[args[1]] = _now()

    def on_poll(tracer, events, args) -> None:
        now = _now()
        for ticket, status, payload in events:
            start = dispatched.pop(ticket, None)
            if start is None or not hasattr(payload, "wall_seconds"):
                continue
            tracer.sample("engine.dispatch_wait_ms",
                          (now - start - payload.wall_seconds * 1e9) / 1e6)
            tracer.sample("engine.result_bytes", len(pickle.dumps(payload)))
            tracer.sample(WORKER_BUSY,
                          (now - int(payload.wall_seconds * 1e9), now))

    tracer.patch_method(WarmPool, "submit", "engine.executor",
                        on_result=on_dispatch)
    tracer.patch_method(WarmPool, "poll", "engine.executor",
                        on_result=on_poll)
    tracer.patch_method(mp_process.BaseProcess, "start", "engine.executor")
    tracer.patch_method(ShardJournal, "record", "serve.checkpoint")
    tracer.patch_method(JobStore, "append_journal", "serve.checkpoint")
    tracer.patch_method(JobStore, "write_result", "serve.checkpoint")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    try:
        return run_daemon(args.state_dir, socket_path=args.socket,
                          workers=args.workers, backend="process")
    finally:
        if tracer is not None:
            tracer.unpatch()
            tracer.write(args.trace_out)
            with open(args.trace_out + ".samples", "w",
                      encoding="utf-8") as stream:
                json.dump(tracer.samples, stream)


if __name__ == "__main__":
    sys.exit(main())
