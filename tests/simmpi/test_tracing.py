"""Tests for the communication tracing facility."""

import json

import pytest

from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program
from repro.simmpi.tracing import CommTrace, TraceRecorder, resolve_trace

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)


def _traced(prog, nranks=2):
    res = run_program(nranks, prog, cluster=CLUSTER, trace=True)
    assert res.trace is not None
    return res.trace.comm


def test_p2p_traffic_recorded():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"x" * 100, 1, tag=0)
            ctx.comm.send(b"y" * 50, 1, tag=0)
        else:
            ctx.comm.recv(0, 0)
            ctx.comm.recv(0, 0)

    trace = _traced(prog)
    assert trace.total_messages == 2
    assert trace.total_payload_bytes == 150
    assert trace.routes[(0, 1)].messages == 2
    assert trace.bytes_sent_by(0) == 150
    assert trace.bytes_received_by(1) == 150
    assert trace.bytes_sent_by(1) == 0


def test_wire_overhead_fraction_tracks_encryption():
    from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig

    def prog(ctx):
        cfg = SecurityConfig(crypto=CryptoPlan(bytework="modeled"))
        enc = EncryptedComm(ctx, cfg)
        if ctx.rank == 0:
            enc.send(b"z" * 1000, 1)
        else:
            enc.recv(0)

    trace = _traced(prog)
    # The frame (nonce||pt||tag) IS the MPI-level payload: 1000+28.
    assert trace.total_wire_bytes == trace.total_payload_bytes == 1028
    assert trace.routes[(0, 1)].wire_bytes == 1028


def test_matrix_and_heaviest_routes():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"a" * 10, 1, tag=0)
        elif ctx.rank == 1:
            ctx.comm.recv(0, 0)
            ctx.comm.send(b"b" * 99, 2, tag=0)
        elif ctx.rank == 2:
            ctx.comm.recv(1, 0)

    trace = _traced(prog, nranks=3)
    m = trace.matrix(3)
    assert m[0][1] == 10
    assert m[1][2] == 99
    assert trace.heaviest_routes(1)[0][0] == (1, 2)


def test_size_histogram_buckets():
    trace = CommTrace()
    trace.record(0, 1, 0, 0)
    trace.record(0, 1, 1, 29)
    trace.record(0, 1, 1024, 1052)
    trace.record(0, 1, 1500, 1528)
    assert trace.size_histogram[-1] == 1
    assert trace.size_histogram[0] == 1
    assert trace.size_histogram[10] == 2  # 1024 and 1500 share 2^10


def test_render_is_readable():
    trace = CommTrace()
    trace.record(0, 1, 100, 128)
    out = trace.render()
    assert "messages: 1" in out
    assert "0->1" in out
    assert trace.wire_overhead_fraction() == pytest.approx(0.28)


def test_collectives_are_traced():
    def prog(ctx):
        ctx.comm.allgather(b"g" * 64)

    trace = _traced(prog, nranks=4)
    assert trace.total_messages > 0
    # Every rank both sends and receives in an allgather.
    for r in range(4):
        assert trace.bytes_sent_by(r) > 0


def test_no_trace_by_default():
    def prog(ctx):
        return None

    res = run_program(1, prog, cluster=ClusterSpec(1, 1))
    assert res.trace is None


# ---------------------------------------------------------------------------
# collective byte accounting (regression)
# ---------------------------------------------------------------------------

# Collectives that length-prefix their internal payloads (gather,
# scatter, recursive-doubling allgather, reduce_scatter) used to record
# the packed length as payload_bytes while wire_bytes excluded the
# headers, making payload > wire and wire_overhead_fraction negative.
# Recording now happens once, at the transport, from
# Envelope.payload_bytes — so plain-MPI collectives account exactly like
# plain-MPI point-to-point: payload == wire.


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@pytest.mark.parametrize(
    "collective",
    [
        lambda ctx: ctx.comm.gather(bytes([ctx.rank]) * 100, root=0),
        lambda ctx: ctx.comm.scatter(
            [bytes([i]) * 100 for i in range(4)] if ctx.rank == 0 else None,
            root=0,
        ),
        lambda ctx: ctx.comm.allgather(b"g" * 100),
        lambda ctx: ctx.comm.reduce_scatter([b"\x01" * 64] * 4, _xor),
        lambda ctx: ctx.comm.alltoall([bytes([ctx.rank, d]) * 32 for d in range(4)]),
    ],
    ids=["gather", "scatter", "allgather", "reduce_scatter", "alltoall"],
)
def test_collective_accounting_matches_p2p(collective):
    trace = _traced(collective, nranks=4)
    assert trace.total_messages > 0
    # Plain MPI: no framing overhead, at the transport or anywhere else.
    assert trace.total_payload_bytes == trace.total_wire_bytes
    assert trace.wire_overhead_fraction() == 0.0


def test_p2p_and_collective_byte_accounting_agree():
    """Moving the same logical bytes root->all via bcast or via explicit
    sends must charge identical payload totals."""
    nbytes = 4096

    def via_bcast(ctx):
        data = b"b" * nbytes if ctx.rank == 0 else None
        ctx.comm.bcast(data, 0, nbytes=nbytes)

    def via_sends(ctx):
        if ctx.rank == 0:
            for peer in (1, 2, 3):
                ctx.comm.send(b"b" * nbytes, peer, tag=0)
        else:
            ctx.comm.recv(0, 0)

    t_coll = _traced(via_bcast, nranks=4)
    t_p2p = _traced(via_sends, nranks=4)
    # The binomial tree moves exactly p-1 copies of the payload, same as
    # the explicit star — and both sides count pure data bytes.
    assert t_coll.total_payload_bytes == t_p2p.total_payload_bytes
    assert t_coll.total_wire_bytes == t_p2p.total_wire_bytes


# ---------------------------------------------------------------------------
# structured event recording (TraceRecorder)
# ---------------------------------------------------------------------------


def _recorded(prog, nranks=2, **kw):
    res = run_program(nranks, prog, cluster=CLUSTER, trace=True, **kw)
    assert isinstance(res.trace, TraceRecorder)
    return res.trace


def test_trace_events_records_all_plain_layers():
    def prog(ctx):
        ctx.comm.allgather(b"e" * 64)

    rec = _recorded(prog, nranks=4)
    assert {"engine", "transport", "collective"} <= rec.layers()
    counts = rec.kind_counts()
    assert counts["proc_start"] == counts["proc_end"] == 4
    assert counts["coll_begin"] == counts["coll_end"] == 4
    assert counts["job_start"] == counts["job_end"] == 1
    assert counts["wire_end"] == counts["send_posted"]


def test_recorder_embeds_the_comm_trace_view():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"x" * 100, 1, tag=0)
        else:
            ctx.comm.recv(0, 0)

    rec = _recorded(prog)
    assert rec.comm.total_messages == 1
    assert rec.comm.total_payload_bytes == 100
    c = rec.counters_snapshot()
    assert c[0]["messages_sent"] == 1
    assert c[0]["payload_bytes_sent"] == 100
    assert c[1]["messages_received"] == 1


def test_rendezvous_transfer_is_traced():
    size = 200_000  # far past the eager threshold

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"r" * size, 1, tag=0)
        else:
            ctx.comm.recv(0, 0)

    rec = _recorded(prog)
    assert len(rec.events_in("transport", "rts_delivered")) == 1
    (wire_end,) = rec.events_in("transport", "wire_end")
    assert wire_end.data["wire"] == size
    (send,) = rec.events_in("transport", "send_posted")
    assert send.data["path"] == "rendezvous"


def test_events_are_time_ordered():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"t" * 512, 1, tag=0)
        else:
            ctx.comm.recv(0, 0)

    rec = _recorded(prog)
    times = [e.t for e in rec.events]
    assert times == sorted(times)


def test_jsonl_export_round_trips():
    def prog(ctx):
        ctx.comm.barrier()

    rec = _recorded(prog, nranks=2)
    lines = rec.to_jsonl().splitlines()
    assert len(lines) == len(rec.events)
    parsed = [json.loads(line) for line in lines]
    assert all({"t", "layer", "kind", "rank"} <= set(p) for p in parsed)


def test_chrome_trace_spans_are_balanced():
    def prog(ctx):
        ctx.comm.allgather(b"c" * 32)

    rec = _recorded(prog, nranks=4)
    doc = rec.to_chrome_trace()
    evs = doc["traceEvents"]
    assert sum(1 for e in evs if e["ph"] == "B") == sum(
        1 for e in evs if e["ph"] == "E"
    )
    # every rank got process metadata
    pids = {e["pid"] for e in evs if e["ph"] == "M" and e["name"] == "process_name"}
    assert {0, 1, 2, 3} <= pids


def test_recorder_cannot_span_two_jobs():
    rec = TraceRecorder()

    def prog(ctx):
        return None

    run_program(1, prog, cluster=ClusterSpec(1, 1), trace=rec)
    with pytest.raises(RuntimeError, match="fresh recorder"):
        run_program(1, prog, cluster=ClusterSpec(1, 1), trace=rec)


def test_resolve_trace_contract():
    assert resolve_trace(False) is None
    assert resolve_trace(None) is None
    assert isinstance(resolve_trace(True), TraceRecorder)
    assert resolve_trace(True) is not resolve_trace(True)
    mine = TraceRecorder()
    assert resolve_trace(mine) is mine
    for value in (42, "events", "aggregate"):
        with pytest.raises(TypeError):
            resolve_trace(value)
