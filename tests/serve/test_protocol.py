"""Wire protocol: canonical encoding, versioning, submission lowering."""

import json

import pytest

from repro.engine.spec import CampaignSpec
from repro.errors import ReproError
from repro.fuzz.gen import generate_case
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_message,
    decode_request,
    encode_message,
    job_request,
    parse_submission,
    plain_request,
    stats_counters,
    submit_campaign_request,
    submit_fuzz_request,
)


def test_encode_decode_round_trip_is_canonical():
    message = plain_request("health")
    wire = encode_message(message)
    assert wire.endswith(b"\n")
    assert decode_message(wire) == message
    # canonical: key order never varies with construction order
    assert encode_message({"v": PROTOCOL_VERSION, "op": "health"}) == wire


def test_version_mismatch_is_refused_up_front():
    stale = json.dumps({"v": PROTOCOL_VERSION + 1, "op": "health"})
    with pytest.raises(ReproError, match="version mismatch"):
        decode_message(stale)
    with pytest.raises(ReproError, match="version mismatch"):
        decode_message(json.dumps({"op": "health"}))  # no version at all


def test_malformed_lines_are_refused():
    with pytest.raises(ReproError, match="empty"):
        decode_message("   ")
    with pytest.raises(ReproError, match="invalid protocol JSON"):
        decode_message("{nope")
    with pytest.raises(ReproError, match="must be an object"):
        decode_message("[1,2]")


def test_unknown_operation_is_refused():
    line = encode_message({"v": PROTOCOL_VERSION, "op": "explode"})
    with pytest.raises(ReproError, match="unknown operation"):
        decode_request(line)


def test_campaign_submission_round_trips_the_spec():
    spec = CampaignSpec(installs=50, seed=11, attack="fileobserver",
                        defenses=("fuse-dac",), observe=True)
    message = submit_campaign_request(spec, shards=3, priority=2,
                                      label="grid")
    submission = parse_submission(decode_request(encode_message(message)))
    assert submission.kind == "campaign"
    assert submission.spec == spec
    assert submission.shards == 3
    assert submission.priority == 2
    assert submission.label == "grid"
    assert submission.derive_seed is False


def test_campaign_spec_wire_form_excludes_its_report_class():
    spec = CampaignSpec(installs=5)
    assert "report_class" not in spec.to_json_dict()
    with pytest.raises(ReproError, match="unknown field"):
        CampaignSpec.from_json_dict({"installs": 5, "report_class": "x"})


def test_derive_seed_nulls_the_seed_on_the_wire():
    spec = CampaignSpec(installs=10, seed=5)
    message = submit_campaign_request(spec, derive_seed=True)
    assert message["spec"]["seed"] is None
    submission = parse_submission(message)
    assert submission.derive_seed is True
    # the placeholder seed is the spec default until the queue assigns one
    assert submission.spec == CampaignSpec(installs=10)


def test_fuzz_submission_lowers_to_an_observed_campaign():
    case = generate_case(99, 0)
    submission = parse_submission(submit_fuzz_request(case, label="f0"))
    assert submission.kind == "fuzz"
    assert submission.shards == case.shards
    assert submission.spec.observe is True
    assert submission.spec.seed == case.campaign_spec(observe=True).seed


def test_submission_validation_rejects_bad_fields():
    spec = CampaignSpec(installs=10)
    good = submit_campaign_request(spec)
    for field, value in (("priority", "high"), ("priority", True),
                         ("label", 7), ("shards", 0), ("shards", "4"),
                         ("kind", "mystery")):
        bad = dict(good)
        bad[field] = value
        with pytest.raises(ReproError):
            parse_submission(bad)
    with pytest.raises(ReproError, match="missing its 'spec'"):
        parse_submission({"v": PROTOCOL_VERSION, "op": "submit",
                          "kind": "campaign"})
    with pytest.raises(ReproError, match="missing its 'case'"):
        parse_submission({"v": PROTOCOL_VERSION, "op": "submit",
                          "kind": "fuzz"})


def test_campaign_submission_revalidates_the_spec():
    message = submit_campaign_request(CampaignSpec(installs=10))
    message["spec"]["installer"] = "not-a-real-installer"
    with pytest.raises(ReproError):
        parse_submission(message)


def test_job_request_carries_the_job_id():
    message = job_request("status", "job-000042")
    assert decode_request(encode_message(message))["job"] == "job-000042"


def test_stats_counters_covers_every_counter_field():
    from repro.core.campaign import CampaignStats

    stats = CampaignStats()
    counters = stats_counters(stats)
    assert tuple(counters) == CampaignStats.COUNTER_FIELDS
    assert set(counters.values()) == {0}
