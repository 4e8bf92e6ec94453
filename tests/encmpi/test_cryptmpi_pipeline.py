"""CryptMPI-style pipelined encryption: the chunked wire protocol, the
helper-core schedule, its determinism, and the degraded paths.

The invariants pinned here:

- a ``CryptoPlan(mode="cryptmpi")`` transfer is transparent to the
  caller (same plaintext, same Status convention as serial);
- windowed multi-chunk messages on one (source, tag) channel never
  cross-match (the seq/sibling-tag protocol);
- seal/open work runs on the node's helper cores and its ``core_busy``
  trace is byte-deterministic across runs;
- with zero helpers (oversubscribed node) the pipeline degrades to
  serial-chunked and schedules nothing on the allocator;
- serial-mode plans leave the committed golden digests untouched even
  when a process-wide cryptmpi default is armed.
"""

import pytest

from repro import api
from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi import plan as plan_mod
from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

TWO_NODES = ClusterSpec(nodes=2, cores_per_node=4)
OVERSUBSCRIBED = ClusterSpec(nodes=1, cores_per_node=2)

TAG_BULK = 11
CHUNK = 4 * 1024

REAL_PLAN = CryptoPlan(mode="cryptmpi", chunk_bytes=CHUNK, bytework="real")


@pytest.fixture(autouse=True)
def _no_default_plan():
    prev = plan_mod.set_default_crypto_plan(None)
    yield
    plan_mod.set_default_crypto_plan(prev)


def _payload(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


def _roundtrip(plan, cluster, size, **run_kwargs):
    payload = _payload(size)

    def program(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=plan))
        if ctx.rank == 0:
            enc.send(payload, 1, tag=TAG_BULK)
            return None
        data, status = enc.recv(0, TAG_BULK)
        return (data, status)

    return payload, run_program(2, program, cluster=cluster, **run_kwargs)


def test_multichunk_roundtrip_is_transparent():
    size = 3 * CHUNK + 123  # 4 chunks, last one short
    payload, result = _roundtrip(REAL_PLAN, TWO_NODES, size)
    data, status = result.results[1]
    assert data == payload
    assert (status.source, status.tag) == (0, TAG_BULK)
    # Status.count mirrors the serial convention: delivered frame bytes
    # (here: 4 frames of header+nonce+ct+tag), never less than the
    # plaintext.
    assert status.count >= size


def test_windowed_interleave_never_cross_matches():
    """Six multi-chunk isends in flight on one channel: the seq-based
    sibling tags must keep every message's chunks together."""
    n_msgs, size = 6, 2 * CHUNK + 77
    payloads = [bytes([i + 1]) * size for i in range(n_msgs)]

    def program(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=REAL_PLAN))
        if ctx.rank == 0:
            enc.waitall([enc.isend(p, 1, tag=TAG_BULK) for p in payloads])
            return None
        reqs = [enc.irecv(0, TAG_BULK) for _ in range(n_msgs)]
        return [bytes(r.wait()) for r in reqs]

    result = run_program(2, program, cluster=TWO_NODES)
    assert result.results[1] == payloads


def test_core_busy_trace_and_determinism():
    def run():
        payload = _payload(8 * CHUNK)

        def program(ctx):
            enc = EncryptedComm(ctx, SecurityConfig(crypto=REAL_PLAN))
            if ctx.rank == 0:
                enc.send(payload, 1, tag=TAG_BULK)
            else:
                enc.recv(0, TAG_BULK)

        return api.run_job(program, nranks=2, cluster=TWO_NODES,
                           trace="events").trace

    first, second = run(), run()
    busy = list(first.events_in("cpu", "core_busy"))
    assert busy, "helper-core seals/opens must land on the cpu layer"
    assert {e.data["work"] for e in busy} == {"seal", "open"}
    # same seed, same schedule: the full event stream is byte-identical
    assert first.digest() == second.digest()
    # chunk ledger balances: every sealed chunk is opened exactly once
    sealer = first.counters_snapshot()[0]
    opener = first.counters_snapshot()[1]
    assert sealer["chunk_seals"] == opener["chunk_opens"] == 8


def test_oversubscribed_node_degrades_to_serial_chunked():
    """Both ranks resident on a 2-core node: zero helpers, so nothing
    may be scheduled on the allocator — yet the transfer still works."""
    size = 5 * CHUNK
    payload, result = _roundtrip(REAL_PLAN, OVERSUBSCRIBED, size,
                                 trace="events")
    data, _status = result.results[1]
    assert data == payload
    assert not list(result.trace.events_in("cpu"))


def test_helper_cores_zero_forces_the_fallback():
    plan = CryptoPlan(mode="cryptmpi", chunk_bytes=CHUNK, helper_cores=0,
                      bytework="real")
    payload, result = _roundtrip(plan, TWO_NODES, 3 * CHUNK, trace="events")
    data, _status = result.results[1]
    assert data == payload
    assert not list(result.trace.events_in("cpu"))


def test_pipelined_beats_serial_on_large_messages():
    def one_way(plan):
        def program(ctx):
            enc = EncryptedComm(
                ctx, SecurityConfig(crypto=plan)
            )
            if ctx.rank == 0:
                enc.send(b"\x5a" * (1024 * 1024), 1, tag=TAG_BULK)
                return ctx.now
            enc.recv(0, TAG_BULK)
            return ctx.now

        return run_program(
            2, program, network="infiniband",
            cluster=ClusterSpec(nodes=2, cores_per_node=8),
        ).results[1]

    serial = one_way(CryptoPlan(bytework="modeled"))
    piped = one_way(CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024,
                               bytework="modeled"))
    assert piped < serial * 0.75


def test_modeled_and_real_bytework_agree_on_timing():
    """The bytework switch changes byte handling, never virtual time."""
    size = 6 * CHUNK + 17

    def one_way(plan):
        _payload_, result = _roundtrip(plan, TWO_NODES, size)
        return result.duration

    real = one_way(REAL_PLAN)
    modeled = one_way(CryptoPlan(mode="cryptmpi", chunk_bytes=CHUNK,
                                 bytework="modeled"))
    assert real == pytest.approx(modeled, abs=0.0)


def test_chunked_delivery_survives_corruption_with_resilience():
    size = 4 * CHUNK
    payload = _payload(size)

    def program(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=REAL_PLAN))
        if ctx.rank == 0:
            enc.send(payload, 1, tag=TAG_BULK)
            return None
        data, _status = enc.recv(0, TAG_BULK)
        return data

    result = api.run_job(
        program, nranks=2,
        options=api.RunOptions(
            cluster=TWO_NODES,
            faults=FaultPlan(corrupt=0.2, seed=13),
            resilience=ResiliencePolicy(max_retries=8, timeout=1e-3),
        ),
    )
    assert result.results[1] == payload


def test_goldens_ignore_an_armed_cryptmpi_default():
    """Golden runs pin an explicit serial plan, so even a process-wide
    cryptmpi default (campaign --crypto) must not move their digests."""
    import json
    import os

    from repro.experiments import goldens

    fixture = os.path.join(os.path.dirname(__file__), os.pardir,
                           "goldens", "golden_traces.json")
    with open(fixture) as fh:
        committed = json.load(fh)["runs"]["enc_multipair"]["digest"]
    plan_mod.set_default_crypto_plan(
        CryptoPlan(mode="cryptmpi", chunk_bytes=CHUNK)
    )
    rec = goldens.run_golden("enc_multipair")
    assert rec.digest() == committed
