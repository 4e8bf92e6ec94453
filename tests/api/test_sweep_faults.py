"""sweep() fault injection and parallel-grid semantics.

A sweep forwards ``faults=`` to every cell, and a :class:`FaultPlan`
gives each cell a fresh seeded injector; a stateful injector instance
is never shared across cells (mirroring the TraceRecorder rule) — it
is not a ``faults=`` value at all.
"""

import pytest

from repro import api
from repro.crypto.errors import AuthenticationError
from repro.models.cpu import ClusterSpec
from repro.simmpi.faults import FaultAction, FaultInjector, target_route

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)
SECURITY = api.SecurityConfig(nonce_strategy="counter",
                              crypto=api.CryptoPlan(bytework="real"))
#: corrupt every message on the 0 -> 1 route: ``rng.random() < 1.0``
#: always fires
CORRUPT_ROUTE = api.FaultPlan(corrupt=1.0, src=0, dst=1, corrupt_bit=300)


def _enc_exchange(ctx):
    if ctx.rank == 0:
        ctx.enc.send(b"\x00" * 64, 1, tag=0)
        return "sent"
    try:
        ctx.enc.recv(0, 0)
        return "accepted"
    except AuthenticationError:
        return "rejected"


def test_sweep_cell_records_auth_fail_events():
    """The regression the satellite names: a sweep cell under fault
    injection must actually reject the tampered message and record the
    auth_fail event in its trace."""
    points = api.sweep(
        _enc_exchange,
        nranks=2,
        networks=("ethernet", "infiniband"),
        securities=(SECURITY,),
        cluster=CLUSTER,
        trace=True,
        faults=CORRUPT_ROUTE,
    )
    assert len(points) == 2
    for point in points:
        assert point.result.results == ["sent", "rejected"]
        (fail,) = point.result.trace.events_in("aead", "auth_fail")
        assert fail.rank == 1


def test_sweep_rejects_one_injector_instance_across_cells():
    injector = FaultInjector(target_route(0, 1, FaultAction.CORRUPT))
    with pytest.raises(TypeError, match="FaultPlan"):
        api.sweep(
            _enc_exchange,
            nranks=2,
            networks=("ethernet", "infiniband"),
            securities=(SECURITY,),
            cluster=CLUSTER,
            faults=injector,
        )


def test_sweep_rejects_non_injector_non_factory():
    with pytest.raises(TypeError, match="faults"):
        api.sweep(_enc_exchange, nranks=2, securities=(SECURITY,),
                  cluster=CLUSTER, faults="corrupt-everything")


def test_parallel_sweep_matches_serial_byte_for_byte():
    def workload(ctx):
        comm = ctx.enc if ctx.enc is not None else ctx.comm
        peer = 1 - ctx.rank
        rreq = comm.irecv(peer, tag=1)
        sreq = comm.isend(b"\x07" * 512, peer, tag=1)
        got = rreq.wait()
        sreq.wait()
        ctx.comm.barrier()
        return len(got)

    kwargs = dict(
        nranks=2,
        networks=("ethernet", "infiniband"),
        securities=(None, SECURITY),
        cluster=CLUSTER,
        trace=True,
    )
    serial = api.sweep(workload, **kwargs)
    parallel = api.sweep(workload, parallel=2, **kwargs)
    assert [p.label for p in parallel] == [p.label for p in serial]
    for s_point, p_point in zip(serial, parallel):
        assert p_point.result.results == s_point.result.results
        assert p_point.result.duration == s_point.result.duration
        assert p_point.result.spans == s_point.result.spans
        # the structured traces agree digest-for-digest across workers
        if s_point.result.trace is not None:
            assert p_point.result.trace.digest() == s_point.result.trace.digest()


def test_parallel_sweep_with_faults_uses_fresh_injector_per_cell():
    points = api.sweep(
        _enc_exchange,
        nranks=2,
        networks=("ethernet", "infiniband"),
        securities=(SECURITY,),
        cluster=CLUSTER,
        parallel=2,
        faults=CORRUPT_ROUTE,
    )
    assert [p.result.results for p in points] == [["sent", "rejected"]] * 2
