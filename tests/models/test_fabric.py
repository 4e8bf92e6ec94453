"""The FabricSpec facade: parse/token round-trips, shared error
messages, and seeded noise determinism."""

import pytest

from repro.models.network import (
    FABRIC_PRESETS,
    FabricSpec,
    NoiseModel,
    canonical_fabric,
    get_network,
    parse_network_spec,
    resolve_network,
)
from repro.simmpi.faults import FaultPlan


def test_parse_round_trips_through_token():
    for spec_str in (
        "ethernet",
        "wan",
        "iot:loss=5%",
        "wan:jitter=10%,loss=2%,seed=7",
        "infiniband:jitter=3%,wobble=1%,loss=4%,seed=-2",
        "ethernet:wobble=0.125",
    ):
        spec = parse_network_spec(spec_str)
        assert parse_network_spec(spec.token()) == spec


def test_token_is_canonical():
    # aliases, option order, and spellings all collapse to one token
    assert parse_network_spec("eth").token() == "ethernet"
    assert parse_network_spec("10g:seed=3,jitter=0.1").token() == \
        "ethernet:jitter=10%,seed=3"
    assert FabricSpec(base="ib", loss=0.02).token() == "infiniband:loss=2%"
    # zero knobs are omitted; an all-zero spec tokens to the bare name
    # (historical cache keys and memo keys survive the facade)
    assert FabricSpec(base="wan", jitter=0.0, seed=0).token() == "wan"


def test_parse_accepts_spec_passthrough():
    spec = FabricSpec(base="wan", jitter=0.1)
    assert parse_network_spec(spec) is spec


def test_unknown_base_raises_keyerror_naming_presets():
    for call in (
        lambda: get_network("carrier-pigeon"),
        lambda: canonical_fabric("carrier-pigeon"),
        lambda: parse_network_spec("carrier-pigeon:loss=1%"),
        lambda: FabricSpec(base="carrier-pigeon"),
    ):
        with pytest.raises(KeyError) as err:
            call()
        message = err.value.args[0]
        assert "carrier-pigeon" in message
        for preset in FABRIC_PRESETS:
            assert preset in message


def test_malformed_options_name_valid_keys():
    with pytest.raises(ValueError, match="jitter, wobble, loss, seed"):
        parse_network_spec("wan:latency=10%")
    with pytest.raises(ValueError, match="key=value"):
        parse_network_spec("wan:jitter")
    with pytest.raises(ValueError, match="duplicate"):
        parse_network_spec("wan:loss=1%,loss=2%")
    with pytest.raises(ValueError, match="integer"):
        parse_network_spec("wan:seed=many")
    with pytest.raises(ValueError, match="fraction"):
        parse_network_spec("wan:loss=lots")


def test_knob_validation():
    with pytest.raises(ValueError, match="jitter"):
        FabricSpec(base="wan", jitter=-0.1)
    for spec in ("ethernet:jitter=nan", "wan:jitter=inf"):
        with pytest.raises(ValueError, match="jitter"):
            parse_network_spec(spec)
    with pytest.raises(ValueError, match="loss"):
        FabricSpec(base="wan", loss=1.0)
    with pytest.raises(ValueError, match="wobble"):
        FabricSpec(base="wan", wobble=1.5)
    with pytest.raises(ValueError, match="seed"):
        FabricSpec(base="wan", seed=1.5)


def test_wan_iot_presets_exist_and_are_hostile():
    eth = get_network("ethernet")
    wan = get_network("wan")
    iot = get_network("iot")
    assert wan.latency > eth.latency
    assert iot.latency > wan.latency
    assert iot.stream_bandwidth(64 * 1024) < wan.stream_bandwidth(64 * 1024)


def test_clean_spec_builds_the_shared_singleton():
    assert FabricSpec(base="ethernet").build() is get_network("ethernet")
    # loss alone does not perturb timing: still the clean model
    assert FabricSpec(base="wan", loss=0.02).build() is get_network("wan")


def test_noisy_spec_builds_fresh_noise_models():
    spec = FabricSpec(base="wan", jitter=0.1, seed=3)
    a, b = spec.build(), spec.build()
    assert isinstance(a, NoiseModel) and isinstance(b, NoiseModel)
    assert a is not b  # fresh RNG position per job
    assert a.base is b.base  # but one shared timing singleton
    assert a.name == spec.token()
    # delegation: timing lookups fall through to the base model
    assert a.latency == get_network("wan").latency


def test_loss_compiles_to_a_seeded_fault_plan():
    spec = FabricSpec(base="iot", loss=0.05, seed=11)
    assert spec.loss_plan() == FaultPlan(drop=0.05, seed=11)
    assert FabricSpec(base="iot").loss_plan() is None


def test_resolve_network_passthrough_for_model_instances():
    model = get_network("ethernet")
    spec, resolved = resolve_network(model)
    assert spec is None and resolved is model
    spec, resolved = resolve_network("wan:jitter=5%")
    assert spec == FabricSpec(base="wan", jitter=0.05)
    assert isinstance(resolved, NoiseModel)


def test_perturb_draws_are_seed_deterministic():
    spec = FabricSpec(base="wan", jitter=0.1, wobble=0.05, seed=9)
    a = [spec.build().perturb_delay(1e-3) for _ in range(5)]
    b = [spec.build().perturb_delay(1e-3) for _ in range(5)]
    # one draw from a fresh model per call: all equal, and non-trivial
    assert a == b
    assert all(d != 1e-3 for d in a)
    reseeded = FabricSpec(base="wan", jitter=0.1, wobble=0.05, seed=10)
    assert reseeded.build().perturb_delay(1e-3) != a[0]


def test_perturbed_delay_is_bounded_and_nonnegative():
    spec = FabricSpec(base="wan", jitter=0.2, wobble=0.1, seed=1)
    model = spec.build()
    base_latency = model.base.latency
    for _ in range(200):
        delay = model.perturb_delay(1e-3)
        assert delay >= 1e-3 * (1.0 - spec.wobble)
        assert delay <= 1e-3 * (1.0 + spec.wobble) + \
            base_latency * spec.jitter * 2.0
