"""Tests for fuzz case sampling, lowering, and serialization."""

import json

import pytest

from repro.errors import ReproError
from repro.fuzz.gen import (
    FUZZ_ATTACKS,
    FUZZ_DEVICES,
    FUZZ_INSTALLERS,
    PERMISSION_POOL,
    FuzzCase,
    generate_case,
    simplified,
)


def test_generation_is_pure_in_seed_and_index():
    assert generate_case(7, 3) == generate_case(7, 3)
    assert generate_case(7, 3) != generate_case(7, 4)
    assert generate_case(7, 3) != generate_case(8, 3)


def test_generated_cases_draw_from_registries():
    for index in range(50):
        case = generate_case(11, index)
        assert case.installer in FUZZ_INSTALLERS
        assert case.attack in FUZZ_ATTACKS
        assert case.device in FUZZ_DEVICES
        assert 0 <= case.max_extra_permissions < len(PERMISSION_POOL)
        case.validate()  # never raises: valid by construction


def test_one_shot_attacker_never_sharded():
    for index in range(200):
        case = generate_case(13, index)
        if case.attack != "none" and not case.rearm_between:
            assert case.shards == 1


def test_json_round_trip_is_bit_identical():
    for index in range(30):
        case = generate_case(5, index)
        text = case.to_json()
        clone = FuzzCase.from_json(text)
        assert clone == case
        assert clone.to_json() == text


def test_from_json_rejects_unknown_and_missing_fields():
    case = generate_case(5, 0)
    with pytest.raises(ReproError, match="unknown field"):
        FuzzCase.from_json(case.to_json()[:-1] + ',"bogus":1}')
    with pytest.raises(ReproError, match="missing field"):
        FuzzCase.from_json('{"seed":1,"trials":1}')
    # Wrongly typed fields are refused by name, never coerced: a str of
    # defenses is not read one name per character.
    for field, value, expected in (
            ("trials", "3", "trials must be an int, got str '3'"),
            ("defenses", "dapp",
             "defenses must be a list of names, got str 'dapp'")):
        data = dict(json.loads(case.to_json()), **{field: value})
        with pytest.raises(ReproError) as caught:
            FuzzCase.from_json(json.dumps(data))
        assert str(caught.value) == expected


def test_case_id_is_content_addressed():
    case = generate_case(5, 1)
    assert case.case_id() == FuzzCase.from_json(case.to_json()).case_id()
    assert case.case_id() != generate_case(5, 2).case_id()
    assert len(case.case_id()) == 12


def test_lowering_rejects_degenerate_cases():
    with pytest.raises(ReproError, match="trials >= 1"):
        FuzzCase(seed=1, trials=0).validate()
    with pytest.raises(ReproError, match="shards >= 1"):
        FuzzCase(seed=1, trials=1, shards=0).validate()


def test_lowering_carries_the_case_shape():
    case = FuzzCase(seed=9, trials=4, installer="xiaomi",
                    attack="wait-and-see", defenses=("dapp",),
                    max_extra_permissions=2, poll_interval_ns=5_000_000)
    spec = case.campaign_spec(observe=True)
    assert spec.installs == 4
    assert spec.installer == "xiaomi"
    assert spec.observe
    assert spec.permission_pool == PERMISSION_POOL
    assert spec.poll_interval_ns == 5_000_000


def test_permission_pool_only_attached_when_drawn():
    spec = FuzzCase(seed=9, trials=1).campaign_spec()
    assert spec.permission_pool == ()
    assert spec.max_extra_permissions == 0


def test_simplified_returns_none_for_invalid_changes():
    case = FuzzCase(seed=1, trials=2, attack="fileobserver")
    assert simplified(case, trials=0) is None
    assert simplified(case, rearm_between=False, shards=2) is None
    smaller = simplified(case, trials=1)
    assert smaller is not None and smaller.trials == 1


def test_describe_mentions_the_interesting_knobs():
    case = FuzzCase(seed=1, trials=2, attack="wait-and-see",
                    poll_interval_ns=123, chaos=None, shards=1,
                    arm_attacker=False)
    text = case.describe()
    assert "attack=wait-and-see" in text
    assert "poll=123ns" in text
    assert "unarmed" in text
