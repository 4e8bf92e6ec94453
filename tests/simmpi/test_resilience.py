"""The reliable-delivery layer: policy values, backoff schedules,
retransmission under drops, NACK + fresh-nonce resealing of auth
failures, and escalation."""

import pytest

from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program
from repro.simmpi.faults import FaultAction, FaultInjector, FaultPlan, target_route
from repro.simmpi.resilience import (
    ResilienceExhausted,
    ResiliencePolicy,
    parse_resilience_policy,
)
from repro.simmpi.tracing import TraceRecorder

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)
TAG_DATA = 5

POLICY = ResiliencePolicy(max_retries=4, timeout=1e-3)


# -- policy values -------------------------------------------------------------


def test_policy_validates_fields():
    with pytest.raises(ValueError, match="max_retries"):
        ResiliencePolicy(max_retries=-1)
    with pytest.raises(ValueError, match="timeout"):
        ResiliencePolicy(timeout=0.0)
    with pytest.raises(ValueError, match="backoff"):
        ResiliencePolicy(backoff="quadratic")
    with pytest.raises(ValueError, match="escalation"):
        ResiliencePolicy(escalation="explode")
    with pytest.raises(ValueError, match="backoff_factor"):
        ResiliencePolicy(backoff_factor=0.5)


def test_exponential_backoff_schedule():
    pol = ResiliencePolicy(max_retries=4, timeout=1e-3, backoff="exponential")
    assert pol.retry_schedule() == (1e-3, 2e-3, 4e-3, 8e-3)


def test_fixed_backoff_schedule():
    pol = ResiliencePolicy(max_retries=3, timeout=5e-4, backoff="fixed")
    assert pol.retry_schedule() == (5e-4, 5e-4, 5e-4)


def test_retry_delay_is_one_based():
    with pytest.raises(ValueError, match="1-based"):
        POLICY.retry_delay(0)


def test_parse_resilience_policy():
    pol = parse_resilience_policy(
        "retries=6, timeout=0.002, backoff=fixed, escalation=drop, factor=3"
    )
    assert pol == ResiliencePolicy(
        max_retries=6, timeout=2e-3, backoff="fixed",
        escalation="drop", backoff_factor=3.0,
    )
    assert parse_resilience_policy("") == ResiliencePolicy()
    with pytest.raises(ValueError, match="unknown resilience option"):
        parse_resilience_policy("reties=3")


# -- plain-MPI retransmission (timeout path) -----------------------------------


def _pingpong(iters=4, payload=b"\xab" * 64):
    def program(ctx):
        got = []
        for _ in range(iters):
            if ctx.rank == 0:
                ctx.comm.send(payload, 1, tag=TAG_DATA)
                got.append(ctx.comm.recv(1, TAG_DATA)[0])
            else:
                got.append(ctx.comm.recv(0, TAG_DATA)[0])
                ctx.comm.send(payload, 0, tag=TAG_DATA)
        return got

    return program


def _drop_first_n(n):
    """Injector dropping the first *n* envelopes it sees."""
    seen = {"n": 0}

    def policy(env):
        seen["n"] += 1
        return FaultAction.DROP if seen["n"] <= n else FaultAction.DELIVER

    return FaultInjector(policy)


def test_dropped_message_is_retransmitted():
    res = run_program(
        2, _pingpong(), cluster=CLUSTER,
        fault_injector=_drop_first_n(1), resilience=POLICY,
    )
    assert res.results[0] == res.results[1] == [b"\xab" * 64] * 4
    rep = res.resilience
    assert rep.retransmits == 1
    assert rep.gave_up == 0
    assert rep.acks == rep.tracked  # every flight eventually acked


def test_retransmit_costs_at_least_the_timeout():
    clean = run_program(2, _pingpong(), cluster=CLUSTER, resilience=POLICY)
    faulty = run_program(
        2, _pingpong(), cluster=CLUSTER,
        fault_injector=_drop_first_n(1), resilience=POLICY,
    )
    # the first retransmission waits >= retry_delay(1) past the expected
    # delivery; the makespan must reflect that (timeout-boundary check)
    assert faulty.duration >= clean.duration + POLICY.retry_delay(1)


def test_consecutive_drops_follow_backoff_schedule():
    pol = ResiliencePolicy(max_retries=4, timeout=1e-3, backoff="exponential")
    clean = run_program(2, _pingpong(iters=1), cluster=CLUSTER, resilience=pol)
    faulty = run_program(
        2, _pingpong(iters=1), cluster=CLUSTER,
        fault_injector=_drop_first_n(3), resilience=pol,
    )
    # three drops of the same flight wait timeout, 2*timeout, 4*timeout
    waited = sum(pol.retry_schedule()[:3])
    assert faulty.duration >= clean.duration + waited
    assert faulty.resilience.retransmits == 3


def test_retry_and_ack_events_recorded():
    rec = TraceRecorder()
    run_program(
        2, _pingpong(iters=2), cluster=CLUSTER, trace=rec,
        fault_injector=_drop_first_n(1), resilience=POLICY,
    )
    (retry,) = rec.events_in("transport", "retry")
    assert retry.data["attempt"] == 1
    assert retry.data["reason"] == "timeout"
    acks = rec.events_in("transport", "ack")
    assert len(acks) == rec.comm.total_messages
    counters = rec.rank_counters(retry.rank)
    assert counters.retransmits == 1
    assert rec.events_in("transport", "gave_up") == []


def test_policy_unset_keeps_counters_and_events_silent():
    rec = TraceRecorder()
    run_program(2, _pingpong(iters=2), cluster=CLUSTER, trace=rec)
    for kind in ("retry", "nack", "ack", "gave_up"):
        assert rec.events_in("transport", kind) == []
    for r in (0, 1):
        c = rec.rank_counters(r)
        assert (c.retransmits, c.nacks, c.acks, c.gave_ups) == (0, 0, 0, 0)


def test_fifo_order_survives_retransmission():
    # Drop the first of several same-route sends: later sends must not
    # overtake it at the receiver.
    def program(ctx):
        if ctx.rank == 0:
            reqs = [
                ctx.comm.isend(bytes([i]) * 8, 1, tag=TAG_DATA)
                for i in range(4)
            ]
            for r in reqs:
                r.wait()
            return None
        return [ctx.comm.recv(0, TAG_DATA)[0][0] for _ in range(4)]

    res = run_program(
        2, program, cluster=CLUSTER,
        fault_injector=_drop_first_n(1), resilience=POLICY,
    )
    assert res.results[1] == [0, 1, 2, 3]


# -- encrypted NACK path (auth failures) ---------------------------------------


ENC_CONFIG = SecurityConfig(
    library="boringssl",
    crypto=CryptoPlan(bytework="real"),
    nonce_strategy="counter",
    replay_window=32,
)


def _enc_pingpong(iters=4, size=64):
    payload = b"\xcd" * size

    def program(ctx):
        enc = EncryptedComm(ctx, ENC_CONFIG)
        got = []
        for _ in range(iters):
            if ctx.rank == 0:
                enc.send(payload, 1, tag=TAG_DATA)
                got.append(enc.recv(1, TAG_DATA)[0])
            else:
                got.append(enc.recv(0, TAG_DATA)[0])
                enc.send(payload, 0, tag=TAG_DATA)
        return got

    return program


def _corrupt_first_n(n):
    seen = {"n": 0}

    def policy(env):
        seen["n"] += 1
        return FaultAction.CORRUPT if seen["n"] <= n else FaultAction.DELIVER

    return FaultInjector(policy)


def test_corrupted_frame_is_nacked_and_resealed():
    rec = TraceRecorder()
    res = run_program(
        2, _enc_pingpong(), cluster=CLUSTER, trace=rec,
        fault_injector=_corrupt_first_n(1), resilience=POLICY,
        sanitize=True,  # nonce ledger must stay clean across reseals
    )
    assert res.results[0] == res.results[1] == [b"\xcd" * 64] * 4
    rep = res.resilience
    assert rep.nacks == 1
    assert rep.retransmits == 1
    (nack,) = rec.events_in("transport", "nack")
    assert nack.data["reason"] == "auth_fail"
    # the retransmission was sealed afresh: one extra seal than opens
    seals = rec.events_in("aead", "seal")
    opens = rec.events_in("aead", "open")
    assert len(seals) == len(opens) + 1


def test_reseal_uses_a_fresh_nonce():
    rec = TraceRecorder()
    run_program(
        2, _enc_pingpong(iters=2), cluster=CLUSTER, trace=rec,
        fault_injector=_corrupt_first_n(1), resilience=POLICY,
        sanitize=True,
    )
    # counter nonces are unique per seal and the armed sanitizer raises
    # NonceReuseError on any repeat — completing proves the reseal drew
    # a fresh nonce; the event count pins that a reseal happened at all
    seals = rec.events_in("aead", "seal")
    assert len(seals) == 5  # 4 sends + 1 reseal


def test_replay_protection_still_works_under_resilience():
    # A duplicated frame is a replay: the guard rejects the copy, the
    # legitimate traffic flows on, nothing escalates.
    def dup_policy():
        seen = {"n": 0}

        def policy(env):
            seen["n"] += 1
            return FaultAction.DUPLICATE if seen["n"] == 1 else FaultAction.DELIVER

        return FaultInjector(policy)

    res = run_program(
        2, _enc_pingpong(), cluster=CLUSTER,
        fault_injector=dup_policy(), resilience=POLICY, sanitize=True,
    )
    assert res.results[0] == res.results[1] == [b"\xcd" * 64] * 4
    assert res.resilience.gave_up == 0


# -- escalation ----------------------------------------------------------------


def _always_drop_route():
    return FaultInjector(target_route(0, 1, FaultAction.DROP))


def test_escalation_fail_raises_exhausted():
    pol = ResiliencePolicy(max_retries=2, timeout=1e-3, escalation="fail")
    with pytest.raises(Exception) as excinfo:
        run_program(
            2, _pingpong(iters=1), cluster=CLUSTER,
            fault_injector=_always_drop_route(), resilience=pol,
        )
    # surfaces either directly (engine callback) or via ProcessFailed
    err = excinfo.value
    assert isinstance(err, ResilienceExhausted) or isinstance(
        getattr(err, "__cause__", None), ResilienceExhausted
    ) or "ResilienceExhausted" in repr(err)


def test_escalation_plain_fallback_completes():
    pol = ResiliencePolicy(
        max_retries=2, timeout=1e-3, escalation="plain_fallback"
    )
    res = run_program(
        2, _pingpong(iters=2), cluster=CLUSTER,
        fault_injector=_always_drop_route(), resilience=pol,
    )
    # the fallback copy bypasses the injector, so the data arrives
    assert res.results[1] == [b"\xab" * 64] * 2
    rep = res.resilience
    assert rep.fallbacks == rep.gave_up == 2
    assert rep.retransmits == 2 * pol.max_retries


def test_escalation_drop_abandons_without_error():
    # rank 1 never blocks on the dropped message, so "drop" must neither
    # raise nor deadlock; the receiver simply never sees the payload.
    pol = ResiliencePolicy(max_retries=1, timeout=1e-3, escalation="drop")

    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"\x01" * 16, 1, tag=TAG_DATA)
        return ctx.rank

    res = run_program(
        2, program, cluster=CLUSTER,
        fault_injector=_always_drop_route(), resilience=pol,
    )
    assert res.results == [0, 1]
    rep = res.resilience
    assert rep.gave_up == 1
    assert rep.fallbacks == 0


# -- determinism ---------------------------------------------------------------


def test_faulty_resilient_run_is_deterministic():
    plan = FaultPlan(drop=0.2, corrupt=0.1, seed=9)

    def one():
        rec = TraceRecorder()
        res = run_program(
            2, _enc_pingpong(iters=8), cluster=CLUSTER, trace=rec,
            fault_injector=plan.build(), resilience=POLICY, sanitize=True,
        )
        return res.duration, res.resilience, rec.digest()

    assert one() == one()
