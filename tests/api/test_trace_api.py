"""Acceptance tests for structured tracing through the public facade."""

import pytest

from repro import api
from repro.simmpi.tracing import CommTrace, TraceRecorder


def _enc_workload(ctx):
    peer = 1 - ctx.rank
    rreq = ctx.enc.irecv(peer, tag=1)
    sreq = ctx.enc.isend(b"\x07" * 512, peer, tag=1)
    got = rreq.wait()
    sreq.wait()
    ctx.comm.barrier()
    return len(got)


SECURITY = api.SecurityConfig(nonce_strategy="counter",
                              crypto=api.CryptoPlan(bytework="real"))


def test_run_job_trace_events_covers_every_layer():
    """The headline contract: one encrypted job traced end to end shows
    events from the engine, transport, collective, and AEAD layers."""
    result = api.run_job(_enc_workload, nranks=2, security=SECURITY,
                         trace="events")
    rec = result.trace
    assert isinstance(rec, TraceRecorder)
    assert {"engine", "transport", "collective", "aead"} <= rec.layers()
    assert result.results == [512, 512]
    # AEAD events carry backend, byte count, and virtual duration
    seal = rec.events_in("aead", "seal")[0]
    assert seal.data["bytes"] == 512
    assert seal.data["dur"] > 0
    assert seal.data["backend"]
    # counters snapshot is complete and consistent
    snap = rec.counters_snapshot()
    for rank in (0, 1):
        assert snap[rank]["aead_seals"] == snap[rank]["aead_opens"] == 1
        assert snap[rank]["bytes_sealed"] == 512
        assert snap[rank]["nonces_consumed"] == 1
    # the aggregate CommTrace view rides along
    assert rec.comm.total_messages > 0


def test_run_job_accepts_caller_constructed_recorder():
    mine = TraceRecorder()
    result = api.run_job(_enc_workload, nranks=2, security=SECURITY,
                         trace=mine)
    assert result.trace is mine
    assert mine.events


def test_run_job_trace_true_keeps_comm_trace_shape():
    result = api.run_job(_enc_workload, nranks=2, security=SECURITY,
                         trace=True)
    assert isinstance(result.trace, CommTrace)
    assert not isinstance(result.trace, TraceRecorder)


def test_sweep_forwards_trace_to_every_cell():
    points = api.sweep(
        _enc_workload,
        nranks=2,
        securities=(SECURITY,),
        networks=("ethernet", "infiniband"),
        trace="events",
    )
    assert len(points) == 2
    recorders = [p.result.trace for p in points]
    assert all(isinstance(r, TraceRecorder) for r in recorders)
    assert recorders[0] is not recorders[1]
    # same program, different fabric: same event structure, different times
    assert recorders[0].kind_counts() == recorders[1].kind_counts()


def test_sweep_rejects_one_recorder_across_cells():
    mine = TraceRecorder()
    with pytest.raises(RuntimeError, match="fresh recorder"):
        api.sweep(
            _enc_workload,
            nranks=2,
            securities=(SECURITY,),
            networks=("ethernet", "infiniband"),
            trace=mine,
        )


# ---------------------------------------------------------------------------
# the typed TraceMode surface
# ---------------------------------------------------------------------------


def test_unknown_trace_string_raises_value_error_naming_modes():
    with pytest.raises(ValueError, match="eventz") as exc_info:
        api.run_job(_enc_workload, nranks=2, security=SECURITY,
                    trace="eventz")
    message = str(exc_info.value)
    assert "'events'" in message and "aggregate" in message
    # sweep rejects it eagerly too, before any cell runs
    with pytest.raises(ValueError, match="unknown trace mode"):
        api.sweep(_enc_workload, nranks=2, securities=(SECURITY,),
                  trace="evnts")


def test_parse_trace_mode_accepts_documented_spellings():
    from repro.simmpi.tracing import parse_trace_mode

    assert parse_trace_mode(None) is False
    assert parse_trace_mode("off") is False
    assert parse_trace_mode("false") is False
    assert parse_trace_mode("aggregate") is True
    assert parse_trace_mode("true") is True
    assert parse_trace_mode("events") == "events"
    assert parse_trace_mode(True) is True
    mine = TraceRecorder()
    assert parse_trace_mode(mine) is mine
    with pytest.raises(TypeError):
        parse_trace_mode(42)
