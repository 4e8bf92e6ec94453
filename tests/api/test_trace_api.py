"""Acceptance tests for structured tracing through the public facade."""

import pytest

from repro import api
from repro.simmpi.tracing import TraceRecorder


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
                         trace=True)
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


def test_sweep_forwards_trace_to_every_cell():
    points = api.sweep(
        _enc_workload,
        nranks=2,
        securities=(SECURITY,),
        networks=("ethernet", "infiniband"),
        trace=True,
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
# the trace= values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["events", "aggregate", "true", "off", 1])
def test_trace_strings_are_type_errors_before_any_rank_runs(value):
    ran = []

    def spy(ctx):
        ran.append(ctx.rank)

    for entry in (api.run_job, api.sweep):
        with pytest.raises(TypeError, match="TraceRecorder"):
            entry(spy, nranks=2, trace=value)
    assert ran == []
    assert not hasattr(api, "TraceMode")
    assert not hasattr(api, "parse_trace_mode")
