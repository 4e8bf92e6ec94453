"""Unit tests for the fault-injection primitives."""

import pytest

from repro.simmpi.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    _flip_bit,
    corrupt_every_nth,
    parse_fault_plan,
    target_route,
)
from repro.simmpi.message import Envelope, OpaquePayload
from repro.simmpi.transport import _RouteLink


def _env(payload=b"\x00" * 8, src=0, dst=1):
    return Envelope(src=src, dst=dst, tag=0, comm_id=0, payload=payload)


def test_flip_bit_changes_exactly_one_bit():
    out = _flip_bit(b"\x00\x00", 3)
    assert out == b"\x08\x00"
    out = _flip_bit(b"\x00\x00", 9)
    assert out == b"\x00\x02"


def test_flip_bit_wraps_long_indices():
    out = _flip_bit(b"\x00", 8)  # wraps back to byte 0
    assert out == b"\x01"


def test_flip_bit_empty_payload_noop():
    assert _flip_bit(b"", 5) == b""


def test_flip_bit_materializes_opaque():
    frame = OpaquePayload(b"\x00" * 12, b"\xff" * 4, b"\x00" * 16)
    out = _flip_bit(frame, 0)
    assert isinstance(out, bytes)
    assert len(out) == 32
    assert out != frame.to_bytes()


def test_injector_ledger_counts():
    inj = FaultInjector(corrupt_every_nth(2))
    for _ in range(4):
        inj.apply(_env())
    assert inj.injected[FaultAction.CORRUPT] == 2
    assert inj.injected[FaultAction.DELIVER] == 2


def test_duplicate_returns_two_independent_envelopes():
    inj = FaultInjector(target_route(0, 1, FaultAction.DUPLICATE))
    env = _env()
    env.link = _RouteLink(None)  # as the transport chains it
    outs = inj.apply(env)
    assert len(outs) == 2
    assert outs[0] is env and outs[1] is not env
    assert outs[0].payload == outs[1].payload
    # The clone must not share the delivery-chain bookkeeping.
    assert outs[1].link is None


def test_duplicate_of_rts_is_suppressed():
    env = _env()
    env.info["rendezvous_trigger"] = lambda: None
    inj = FaultInjector(target_route(0, 1, FaultAction.DUPLICATE))
    assert inj.apply(env) == [env]


def test_drop_returns_empty():
    inj = FaultInjector(target_route(0, 1, FaultAction.DROP))
    assert inj.apply(_env()) == []
    assert inj.apply(_env(src=2, dst=3)) != []  # other routes untouched


def test_corrupt_start_offset():
    inj = FaultInjector(corrupt_every_nth(10, start=2))
    results = [inj.apply(_env())[0].payload != b"\x00" * 8 for _ in range(5)]
    assert results == [False, False, True, False, False]


def test_rts_duplicate_counted_as_deliver_not_duplicate():
    # Regression: the early-return used to count the RTS in the
    # DUPLICATE ledger slot even though only one envelope was delivered.
    env = _env()
    env.info["rendezvous_trigger"] = lambda: None
    inj = FaultInjector(target_route(0, 1, FaultAction.DUPLICATE))
    outs = inj.apply(env)
    assert outs == [env]
    assert inj.injected[FaultAction.DUPLICATE] == 0
    assert inj.injected[FaultAction.DELIVER] == 1
    assert inj.rts_duplicates_skipped == 1


# -- FaultPlan -----------------------------------------------------------------


def test_fault_plan_validates_rates():
    with pytest.raises(ValueError, match="rate"):
        FaultPlan(drop=-0.1)
    with pytest.raises(ValueError, match="rate"):
        FaultPlan(corrupt=1.5)
    with pytest.raises(ValueError, match="exceed"):
        FaultPlan(drop=0.6, corrupt=0.5)


def test_fault_plan_builds_fresh_deterministic_injectors():
    plan = FaultPlan(drop=0.3, corrupt=0.2, seed=42)
    a, b = plan.build(), plan.build()
    assert a is not b
    envs = [_env() for _ in range(50)]
    seq_a = [len(a.apply(e)) for e in envs]
    envs = [_env() for _ in range(50)]
    seq_b = [len(b.apply(e)) for e in envs]
    assert seq_a == seq_b  # same seed, same fault sequence
    assert a.injected == b.injected
    assert 0 < a.injected[FaultAction.DROP] < 50


def test_fault_plan_filters_do_not_consume_rng():
    # Filtered-out traffic must not perturb the fault sequence.
    plan = FaultPlan(drop=0.5, seed=7, dst=1)
    a = plan.build()
    seq_a = [len(a.apply(_env())) for _ in range(20)]
    b = plan.build()
    seq_b = []
    for i in range(20):
        assert b.apply(_env(src=2, dst=3)) != []  # never faulted
        seq_b.append(len(b.apply(_env())))
    assert seq_a == seq_b


def test_parse_fault_plan():
    plan = parse_fault_plan("drop=0.05, corrupt=0.02, seed=7, dst=1")
    assert plan == FaultPlan(drop=0.05, corrupt=0.02, seed=7, dst=1)
    assert parse_fault_plan("") == FaultPlan()
    with pytest.raises(ValueError, match="unknown fault option"):
        parse_fault_plan("dorp=0.05")
    with pytest.raises(ValueError, match="key=value"):
        parse_fault_plan("drop")
