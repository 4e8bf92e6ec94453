"""Transport-layer tests: wire accounting, FIFO clamps, timing paths."""

import pytest

from repro.des.process import Scheduler
from repro.models.cpu import ClusterSpec, TWO_NODE_CLUSTER
from repro.models.network import ethernet_10g
from repro.simmpi import run_program
from repro.simmpi.topology import ClusterRuntime
from repro.simmpi.transport import FLOW_CUTOFF
from repro.util.units import KiB, MiB


def test_wire_bytes_drive_timing_not_payload():
    """A message declared bigger on the wire (encrypted framing) must
    take longer than its payload alone would."""
    times = {}

    def make(wire_extra):
        def prog(ctx):
            if ctx.rank == 0:
                t0 = ctx.now
                ctx.comm.send(
                    b"x" * (16 * KiB), 1, tag=0,
                    wire_bytes=16 * KiB + wire_extra,
                )
                ctx.comm.recv(1, 0)
                times[wire_extra] = ctx.now - t0
            else:
                data, _status = ctx.comm.recv(0, 0)
                ctx.comm.send(b"y", 0, tag=0)

        return prog

    run_program(2, make(0), cluster=TWO_NODE_CLUSTER)
    run_program(2, make(64 * KiB), cluster=TWO_NODE_CLUSTER)
    assert times[64 * KiB] > times[0]


def test_flow_cutoff_constant_sane():
    net = ethernet_10g()
    assert 0 < FLOW_CUTOFF <= net.eager_threshold


def test_route_fifo_under_reordering_pressure():
    """Many same-route messages of wildly mixed sizes still arrive (and
    match) in send order."""
    sizes = [1, 128 * KiB, 4, 1 * MiB, 64, 2 * KiB, 256 * KiB, 2]

    def prog(ctx):
        if ctx.rank == 0:
            for i, s in enumerate(sizes):
                ctx.comm.send(bytes([i]) * max(s, 1), 1, tag=0)
        else:
            order = []
            for _ in sizes:
                data, _status = ctx.comm.recv(0, 0)
                order.append(data[0])
            return order

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[1] == list(range(len(sizes)))


def test_concurrent_pairs_slower_than_isolated_large():
    """Two 2MB streams sharing a NIC take longer than one (flow model)."""
    def one_pair(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            ctx.comm.send(b"z" * (2 * MiB), 1, tag=0)
            return ctx.now - t0
        ctx.comm.recv(0, 0)

    def two_pairs(ctx):
        spec = {0: 2, 1: 3}
        if ctx.rank in spec:
            t0 = ctx.now
            ctx.comm.send(b"z" * (2 * MiB), spec[ctx.rank], tag=0)
            return ctx.now - t0
        if ctx.rank >= 2:
            ctx.comm.recv(ctx.rank - 2, 0)

    spec = ClusterSpec(nodes=2, cores_per_node=4)
    # placement: ranks 0-1 node0? block placement of 4 ranks over 2 nodes
    # puts 0,1 on node 0 and 2,3 on node 1 — senders share node 0's NIC.
    t1 = run_program(2, one_pair, cluster=spec).results[0]
    res2 = run_program(4, two_pairs, cluster=spec).results
    t2 = max(r for r in res2 if r is not None)
    assert t2 > 1.5 * t1


def test_nic_engine_serializes_small_message_injection():
    """A node's ranks injecting simultaneously share the NIC engine."""
    spec = ClusterSpec(nodes=2, cores_per_node=8)
    n_msgs = 200

    def prog(ctx):
        senders = 4
        if ctx.rank < senders:
            peer = ctx.rank + senders
            t0 = ctx.now
            reqs = [ctx.comm.isend(b"m", peer, tag=0) for _ in range(n_msgs)]
            ctx.comm.waitall(reqs)
            return ctx.now - t0
        peer = ctx.rank - senders
        ctx.comm.waitall([ctx.comm.irecv(peer, 0) for _ in range(n_msgs)])

    res = run_program(8, prog, cluster=spec).results
    concurrent = max(r for r in res[:4])

    def prog_single(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            reqs = [ctx.comm.isend(b"m", 1, tag=0) for _ in range(n_msgs)]
            ctx.comm.waitall(reqs)
            return ctx.now - t0
        ctx.comm.waitall([ctx.comm.irecv(0, 0) for _ in range(n_msgs)])

    single = run_program(2, prog_single, cluster=spec).results[0]
    assert concurrent >= single  # sharing never helps injection


def test_self_message_stays_cheap():
    def prog(ctx):
        t0 = ctx.now
        req = ctx.comm.irecv(0, 1)
        ctx.comm.send(b"self" * 100, 0, tag=1)
        req.wait()
        return ctx.now - t0

    res = run_program(1, prog, cluster=ClusterSpec(1, 2))
    assert res.results[0] < 10e-6


@pytest.mark.parametrize("rank", [-1, 2])
def test_rank_node_table_rejects_out_of_range_ranks(rank):
    """The rank -> node table is a plain sequence, where -1 would
    silently pick the last node; lookups check the bounds first."""
    cluster = ClusterRuntime(Scheduler(), ClusterSpec(2, 1), ethernet_10g(), 2)
    assert [cluster.node_of(r).index for r in (0, 1)] == [0, 1]
    named = f"rank {rank} out of range"
    with pytest.raises(ValueError, match=named):
        cluster.node_of(rank)
    with pytest.raises(ValueError, match=named):
        cluster.same_node(0, rank)
    with pytest.raises(ValueError, match=named):
        cluster.same_node(rank, 1)
