"""The recorder's views reproduce the separate records they replaced.

``TraceRecorder.comm`` (per-route traffic) and the per-rank
``RankCounters`` are folds over the event stream.  They replaced a
``CommTrace`` fed by its own transport hook and counters bumped at a
dozen emit sites; ``tests/goldens/trace_views.json`` holds what those
separate records read for the three goldens and for two faulty runs
that between them make every counter field nonzero on some rank.  The
folds must reproduce every value, and the summary text built on them.
"""

import json
import os

import pytest

from repro import api
from repro.experiments import goldens
from repro.simmpi.tracing import RankCounters, TraceRecorder

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "goldens",
                       "trace_views.json")


def _exchange(ctx):
    """Two ranks trade 12 encrypted 3,000-byte messages on tag 3."""
    peer = 1 - ctx.rank
    got = []
    for i in range(12):
        rreq = ctx.enc.irecv(peer, tag=3)
        sreq = ctx.enc.isend(bytes([i]) * 3000, peer, tag=3)
        got.append(rreq.wait())
        sreq.wait()
    ctx.comm.barrier()
    return got


def _faulty_run(mode: str, faults, resilience) -> TraceRecorder:
    extra = ({"chunk_bytes": 1024, "helper_cores": 1}
             if mode == "cryptmpi" else {})
    security = api.SecurityConfig(
        nonce_strategy="counter", replay_window=64, bind_header=True,
        crypto=api.CryptoPlan(mode=mode, bytework="real", **extra))
    rec = TraceRecorder()
    api.run_job(_exchange, nranks=2, security=security, trace=rec,
                faults=faults, resilience=resilience)
    return rec


RUNS = {
    **{name: (lambda name=name: goldens.run_golden(name))
       for name in goldens.GOLDEN_RUNS},
    # drops, corruption and duplicates with one retry and a plaintext
    # fallback: auth failures, replay drops, nacks, acks, gave-ups
    "serial_faults": lambda: _faulty_run(
        "serial",
        api.FaultPlan(drop=0.2, corrupt=0.2, duplicate=0.2, seed=1, tag=3,
                      corrupt_bit=99),
        api.ResiliencePolicy(max_retries=1, timeout=2e-4,
                             escalation="plain_fallback")),
    # chunk seals and opens, retransmissions of dropped frames
    "cryptmpi_drops": lambda: _faulty_run(
        "cryptmpi", api.FaultPlan(drop=0.2, seed=1, tag=3),
        api.ResiliencePolicy(max_retries=8)),
}


def trace_views(rec: TraceRecorder) -> dict:
    """Every number the views expose, in JSON-comparable form."""
    comm = rec.comm
    return {
        "counters": {str(rank): counters for rank, counters
                     in rec.counters_snapshot().items()},
        "comm": {
            "routes": {f"{src}->{dst}": [s.messages, s.payload_bytes,
                                         s.wire_bytes]
                       for (src, dst), s in comm.routes.items()},
            "size_histogram": {str(bucket): n for bucket, n
                               in comm.size_histogram.items()},
            "total_messages": comm.total_messages,
            "total_payload_bytes": comm.total_payload_bytes,
            "total_wire_bytes": comm.total_wire_bytes,
        },
        "summary": rec.summary(),
    }


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_pins_every_run(pinned):
    assert set(pinned) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_views_reproduce_the_pinned_records(name, pinned):
    rec = RUNS[name]()
    views = trace_views(rec)
    # dict equality ignores order; the route and histogram orders are
    # first-seen orders that render() and heaviest_routes() depend on
    for key in ("routes", "size_histogram"):
        assert list(views["comm"][key]) == list(pinned[name]["comm"][key])
    assert views == pinned[name]
    for rank, counters in views["counters"].items():
        assert rec.rank_counters(int(rank)).snapshot() == counters


def test_faulty_runs_make_every_counter_nonzero_somewhere(pinned):
    nonzero = {field for name in ("serial_faults", "cryptmpi_drops")
               for counters in pinned[name]["counters"].values()
               for field, value in counters.items() if value}
    assert nonzero == set(RankCounters().snapshot())


def test_rank_counters_is_a_read_only_view():
    rec = goldens.run_golden("pingpong")
    before = rec.counters_snapshot()
    rec.rank_counters(0).messages_sent += 100
    assert rec.rank_counters(7) == RankCounters()
    assert rec.counters_snapshot() == before
