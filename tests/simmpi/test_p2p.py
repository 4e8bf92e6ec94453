"""Point-to-point semantics tests for the simulated MPI."""

import dataclasses

import pytest

from repro.des.engine import DeadlockError
from repro.des.process import ProcessFailed, Scheduler, _Sleep
from repro.encmpi.context import EncryptedRequest
from repro.models.cpu import ClusterSpec, TWO_NODE_CLUSTER
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_program
from repro.simmpi.message import Envelope
from repro.simmpi.request import Request, Status
from repro.util.units import KiB, MiB

SMALL_CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)


def test_blocking_send_recv_delivers_payload():
    payload = b"hello mpi"

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(payload, 1, tag=3)
        else:
            data, status = ctx.comm.recv(0, 3)
            assert data == payload
            assert status.source == 0
            assert status.tag == 3
            assert status.count == len(payload)
            return data

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[1] == payload


def test_send_to_self():
    def prog(ctx):
        req = ctx.comm.irecv(0, 5)
        ctx.comm.send(b"me", 0, tag=5)
        return req.wait()

    res = run_program(1, prog, cluster=ClusterSpec(1, 2))
    assert res.results[0] == b"me"


def test_any_source_any_tag():
    def prog(ctx):
        if ctx.rank == 0:
            data, status = ctx.comm.recv(ANY_SOURCE, ANY_TAG)
            return (data, status.source, status.tag)
        ctx.comm.send(b"from1", 0, tag=42)

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[0] == (b"from1", 1, 42)


def test_tag_selectivity():
    """A recv for tag 2 must not match a tag-1 message even if it
    arrived first."""

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"one", 1, tag=1)
            ctx.comm.send(b"two", 1, tag=2)
        else:
            two, _status = ctx.comm.recv(0, 2)
            one, _status = ctx.comm.recv(0, 1)
            return (one, two)

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[1] == (b"one", b"two")


def test_non_overtaking_same_tag():
    """MPI guarantee: same (src, dst, tag) messages match in send order."""

    def prog(ctx):
        n = 10
        if ctx.rank == 0:
            for i in range(n):
                ctx.comm.send(bytes([i]), 1, tag=0)
        else:
            got = [ctx.comm.recv(0, 0)[0][0] for _ in range(n)]
            return got

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[1] == list(range(10))


def test_mixed_sizes_non_overtaking():
    """A big (slow) message sent before a small one still matches first."""

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"B" * (256 * KiB), 1, tag=0)  # rendezvous
            ctx.comm.send(b"s", 1, tag=0)  # eager
        else:
            first, _stat = ctx.comm.recv(0, 0)
            second, _stat = ctx.comm.recv(0, 0)
            return (len(first), len(second))

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[1] == (256 * KiB, 1)


def test_isend_irecv_waitall():
    def prog(ctx):
        if ctx.rank == 0:
            reqs = [ctx.comm.isend(bytes([i]), 1, tag=i) for i in range(5)]
            ctx.comm.waitall(reqs)
        else:
            reqs = [ctx.comm.irecv(0, i) for i in range(5)]
            values = ctx.comm.waitall(reqs)
            return [v[0] for v in values]

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[1] == [0, 1, 2, 3, 4]


def test_request_completed_flag():
    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(1, 0)
            assert not req.completed
            data = req.wait()
            assert req.completed
            return data
        ctx.comm.send(b"done", 0, tag=0)

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[0] == b"done"


def test_sendrecv_exchanges_without_deadlock():
    def prog(ctx):
        other = 1 - ctx.rank
        data, _status = ctx.comm.sendrecv(
            f"from{ctx.rank}".encode(), other, other, 9, 9
        )
        return data

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results == [b"from1", b"from0"]


def test_head_to_head_rendezvous_sends_deadlock():
    """Two blocking large sends at each other: a real MPI hang, which
    the simulator must surface as DeadlockError."""
    big = b"x" * (1 * MiB)

    def prog(ctx):
        other = 1 - ctx.rank
        ctx.comm.send(big, other, tag=0)
        ctx.comm.recv(other, 0)

    with pytest.raises((DeadlockError, ProcessFailed)):
        run_program(2, prog, cluster=TWO_NODE_CLUSTER)


def test_eager_sends_do_not_deadlock_head_to_head():
    """Small sends are buffered: head-to-head blocking sends complete."""

    def prog(ctx):
        other = 1 - ctx.rank
        ctx.comm.send(b"tiny", other, tag=0)
        data, _status = ctx.comm.recv(other, 0)
        return data

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results == [b"tiny", b"tiny"]


def test_rendezvous_waits_for_receiver():
    """A large send cannot complete before the matching recv is posted."""
    big_size = 1 * MiB
    times = {}

    def prog(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            ctx.comm.send(b"z" * big_size, 1, tag=0)
            times["send_done"] = ctx.now - t0
        else:
            ctx.compute(5e-3)  # receiver busy for 5 ms before posting
            data, _status = ctx.comm.recv(0, 0)
            times["recv_done"] = ctx.now

    run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    # The sender was held up by the late receiver: its send took at
    # least the receiver's 5 ms delay.
    assert times["send_done"] >= 5e-3


def test_eager_send_returns_before_receiver_posts():
    def prog(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            ctx.comm.send(b"e" * 512, 1, tag=0)
            return ctx.now - t0
        ctx.compute(5e-3)
        ctx.comm.recv(0, 0)

    res = run_program(2, prog, cluster=TWO_NODE_CLUSTER)
    assert res.results[0] < 1e-3  # returned long before the 5 ms


def test_validation_errors():
    def bad_peer(ctx):
        ctx.comm.send(b"x", 5)

    with pytest.raises(ProcessFailed):
        run_program(2, bad_peer, cluster=TWO_NODE_CLUSTER)

    def bad_tag(ctx):
        ctx.comm.send(b"x", 0, tag=-3)

    with pytest.raises(ProcessFailed):
        run_program(2, bad_tag, cluster=TWO_NODE_CLUSTER)

    def bad_payload(ctx):
        ctx.comm.send(12345, 0)

    with pytest.raises(ProcessFailed):
        run_program(2, bad_payload, cluster=TWO_NODE_CLUSTER)


def test_recv_without_send_is_deadlock():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.recv(1, 0)

    with pytest.raises(DeadlockError):
        run_program(2, prog, cluster=TWO_NODE_CLUSTER)


def test_intra_node_faster_than_inter_node():
    def make(peer_a, peer_b):
        def prog(ctx):
            if ctx.rank == peer_a:
                t0 = ctx.now
                ctx.comm.send(b"x" * 4096, peer_b, tag=0)
                ctx.comm.recv(peer_b, 0)
                return ctx.now - t0
            if ctx.rank == peer_b:
                data, _status = ctx.comm.recv(peer_a, 0)
                ctx.comm.send(data, peer_a, tag=0)

        return prog

    spec = ClusterSpec(nodes=2, cores_per_node=4)
    # ranks 0-3 on node 0, 4-7 on node 1
    intra = run_program(8, make(0, 1), cluster=spec).results[0]
    inter = run_program(8, make(0, 4), cluster=spec).results[0]
    assert intra < inter


def test_status_is_a_frozen_dataclass():
    status = Status(source=1, tag=2, count=3)
    assert dataclasses.is_dataclass(status)
    with pytest.raises(dataclasses.FrozenInstanceError):
        status.count = 4


def test_every_rank_step_enters_through_wake_now(monkeypatch):
    """``Scheduler.wake_now`` is the one wake entry point (host-time
    tracing wraps it): every coroutine step of a job with shm, eager and
    rendezvous messages runs inside it."""
    inside, steps = [], []
    wake_now, step_coro = Scheduler.wake_now, Scheduler._step_coro

    def wake(sched, proc):
        inside.append(proc)
        try:
            return wake_now(sched, proc)
        finally:
            inside.pop()

    def step(sched, proc):
        steps.append(bool(inside) and inside[-1] is proc)
        return step_coro(sched, proc)

    monkeypatch.setattr(Scheduler, "wake_now", wake)
    monkeypatch.setattr(Scheduler, "_step_coro", step)

    def program(ctx):
        for size in (64, 1 << 20):
            for peer in (ctx.rank ^ 1, ctx.rank ^ 2):  # same node, other node
                req = ctx.comm.irecv(peer, 0)
                yield from ctx.comm.co_send(b"x" * size, peer, 0)
                yield from req.co_wait()

    run_program(4, program, cluster=ClusterSpec(2, 2))
    assert steps and all(steps)


# -- completed waits -------------------------------------------------------


def _returns_on_first_step(gen):
    """The value *gen* returns on its first step (it must not yield)."""
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


def test_completed_request_wait_ends_on_its_first_step():
    req = Request(Scheduler(), "send")
    req.complete("sent")
    assert _returns_on_first_step(req.co_wait()) == "sent"
    assert _returns_on_first_step(req.co_wait()) == "sent"  # idempotent


def test_failed_request_wait_raises_on_its_first_step():
    req = Request(Scheduler(), "recv")
    req.done_event.fail(KeyError("lost"))
    with pytest.raises(KeyError, match="lost"):
        next(req.co_wait())


def test_matched_receive_charges_its_overhead_once():
    """A receive that matched before its wait yields exactly one sleep,
    the envelope's receive overhead, and a second wait none."""
    req = Request(Scheduler(), "recv")
    env = Envelope(src=0, dst=1, tag=0, comm_id=0, payload=b"data")
    env.info["recv_overhead"] = 2e-6
    req._match_env = env
    req.complete(env.payload, Status(0, 0, 4))
    wait = req.co_wait()
    sleep = next(wait)
    assert type(sleep) is _Sleep and sleep.delay == 2e-6
    assert _returns_on_first_step(wait) == b"data"
    assert _returns_on_first_step(req.co_wait()) == b"data"


def test_completed_encrypted_send_wait_ends_like_its_plain_request():
    inner = Request(Scheduler(), "send")
    inner.complete(None)
    req = EncryptedRequest(inner, owner=None, kind="send")
    assert _returns_on_first_step(req.co_wait()) is None
