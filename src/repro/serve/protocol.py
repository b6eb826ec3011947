"""Versioned JSONL wire protocol of the campaign service.

One request per connection, one JSON object per line, canonical
serialization (sorted keys, compact separators) on both sides — so a
fixed conversation is byte-stable, the property the smoke tests lean
on.  Every message carries ``"v": PROTOCOL_VERSION``; a daemon or
client speaking another version is refused up front with a message
naming both versions, never half-parsed.

Operations::

    submit    enqueue a CampaignSpec ("kind": "campaign") or a
              FuzzCase ("kind": "fuzz"), with priority/label;
              "seed": null in a campaign spec asks the service to
              derive a per-job seed from its own seed stream
    status    one job's current state
    jobs      every known job, submission order
    watch     stream frames as shards land, ending in a terminal frame
    cancel    cancel a queued (not yet running) job
    health    daemon liveness: uptime, queue depth, warm-worker PIDs,
              jobs-by-state counts, pool counters
    trace     where the job's archived trace JSONL lives
    metrics   the service's counters/gauges/histograms plus wall-clock
              telemetry rollups as Prometheus text exposition
    flight    the daemon flight recorder's ring (structured ops events
              with overflow accounting)
    shutdown  drain and stop the daemon

Campaign specs ride as the canonical dict form from
:meth:`repro.engine.spec.CampaignSpec.to_json_dict`; fuzz cases as
:meth:`repro.fuzz.gen.FuzzCase.to_json` objects — both round-trip
exactly, which keeps a submitted job's checkpoint key stable across
daemon restarts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.engine.spec import CampaignSpec, check_fields
from repro.errors import ReproError
from repro.fuzz.gen import FuzzCase

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 1

#: Every request operation the daemon dispatches on.
OPS = ("submit", "status", "jobs", "watch", "cancel", "health", "trace",
       "metrics", "flight", "shutdown")

#: Job lifecycle states, in the order they can occur.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can never leave; each is also the event of the watch
#: frame that ends a stream.
TERMINAL_STATES = JOB_STATES[2:]

#: Submission kinds: a campaign carries a "spec", a fuzz job a "case".
SUBMIT_KINDS = ("campaign", "fuzz")


def encode_message(message: Dict[str, Any]) -> bytes:
    """Canonical JSONL bytes of one protocol message (newline included)."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one protocol line; validates shape and version."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ReproError("empty protocol message")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid protocol JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ReproError(
            f"protocol message must be an object, "
            f"got {type(message).__name__}")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ReproError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this build speaks {PROTOCOL_VERSION}")
    return message


def decode_request(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one request line; additionally validates the operation."""
    message = decode_message(line)
    op = message.get("op")
    if op not in OPS:
        raise ReproError(f"unknown operation {op!r}; valid: {OPS}")
    return message


# -- request builders ----------------------------------------------------------

def _base(op: str) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "op": op}


def submit_campaign_request(spec: CampaignSpec, shards: Optional[int] = None,
                            priority: int = 0, label: str = "",
                            derive_seed: bool = False) -> Dict[str, Any]:
    """A campaign submission; ``derive_seed`` nulls the seed so the
    service assigns one from its per-job seed stream."""
    spec_dict = spec.to_json_dict()
    if derive_seed:
        spec_dict["seed"] = None
    message = _base("submit")
    message.update({"kind": "campaign", "spec": spec_dict, "shards": shards,
                    "priority": priority, "label": label})
    return message


def submit_fuzz_request(case: FuzzCase, priority: int = 0,
                        label: str = "") -> Dict[str, Any]:
    """A fuzz-case submission (shard count comes from the case)."""
    message = _base("submit")
    message.update({"kind": "fuzz", "case": json.loads(case.to_json()),
                    "priority": priority, "label": label})
    return message


def job_request(op: str, job_id: str) -> Dict[str, Any]:
    """A request addressing one job (status/watch/cancel/trace)."""
    message = _base(op)
    message["job"] = job_id
    return message


def plain_request(op: str) -> Dict[str, Any]:
    """A request with no operands (jobs/health/metrics/flight/shutdown)."""
    return _base(op)


# -- responses -----------------------------------------------------------------

def ok_response(**fields: Any) -> Dict[str, Any]:
    """A success response carrying ``fields``."""
    message = {"v": PROTOCOL_VERSION, "ok": True}
    message.update(fields)
    return message


def error_response(error: str) -> Dict[str, Any]:
    """A failure response carrying the reason."""
    return {"v": PROTOCOL_VERSION, "ok": False, "error": error}


def event_frame(event: str, **fields: Any) -> Dict[str, Any]:
    """One stream frame (``watch``): shard progress or a terminal."""
    message = {"v": PROTOCOL_VERSION, "event": event}
    message.update(fields)
    return message


# -- submissions ---------------------------------------------------------------

@dataclass(frozen=True)
class Submission:
    """A validated, executable submission lowered from the wire form."""

    kind: str
    spec: CampaignSpec
    shards: Optional[int]
    priority: int
    label: str
    #: The campaign asked the service to assign a per-job seed.
    derive_seed: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.shards is not None and self.shards < 1:
            raise ReproError(
                f"shards must be a positive integer, got {self.shards!r}")


def parse_submission(message: Dict[str, Any]) -> Submission:
    """Lower a ``submit`` request to a validated :class:`Submission`.

    The payload loads through :func:`~repro.engine.spec.load_fields`
    (``CampaignSpec.from_json_dict`` or ``FuzzCase.from_json``); a fuzz
    case is lowered with ``observe=True`` so its trace is archived.
    """
    kind = message.get("kind")
    if kind not in SUBMIT_KINDS:
        raise ReproError(
            f"unknown submission kind {kind!r}; "
            f"valid: {sorted(SUBMIT_KINDS)}")
    priority = message.get("priority", 0)
    label = message.get("label", "")
    key = "case" if kind == "fuzz" else "spec"
    payload = message.get(key)
    if not isinstance(payload, dict):
        raise ReproError(f"{kind} submission is missing its {key!r} object")
    if kind == "fuzz":
        case = FuzzCase.from_json(json.dumps(payload))
        spec = case.campaign_spec(observe=True)
        return Submission(kind=kind, spec=spec, shards=case.shards,
                          priority=priority, label=label)
    payload = dict(payload)
    derive_seed = "seed" in payload and payload["seed"] is None
    if derive_seed:
        del payload["seed"]
    spec = CampaignSpec.from_json_dict(payload)
    return Submission(kind=kind, spec=spec, shards=message.get("shards"),
                      priority=priority, label=label,
                      derive_seed=derive_seed)


def stats_counters(stats) -> Dict[str, int]:
    """A :class:`~repro.core.campaign.CampaignStats` as a flat dict.

    The stream frames' stats payload: every ``COUNTER_FIELDS`` entry,
    JSON-clean and mergeable by eye.
    """
    return {name: value for name, value
            in zip(stats.COUNTER_FIELDS, stats.counter_tuple())}
