"""Point-to-point semantics tests for the simulated MPI."""

import dataclasses
import gc
import sys
from collections import Counter

import pytest

from repro.des.engine import DeadlockError
from repro.des.process import ProcessFailed, Scheduler, SimEvent, _Sleep
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


def _count_wakes(monkeypatch) -> Counter:
    """Count ``Scheduler.wake_now`` calls per process name."""
    wakes: Counter = Counter()
    wake_now = Scheduler.wake_now

    def wake(sched, proc):
        wakes[proc.name] += 1
        return wake_now(sched, proc)

    monkeypatch.setattr(Scheduler, "wake_now", wake)
    return wakes


def _co_pingpong(size: int, rounds: int):
    def program(ctx):
        peer = 1 - ctx.rank
        for _ in range(rounds):
            if ctx.rank == 0:
                yield from ctx.comm.co_send(b"x" * size, peer, 0)
                yield from ctx.comm.co_recv(peer, 0)
            else:
                yield from ctx.comm.co_recv(peer, 0)
                yield from ctx.comm.co_send(b"x" * size, peer, 0)
    return program


@pytest.mark.parametrize("size, rounds, wakes_per_round, duration", [
    (64, 2, 2, "0x1.5a5e4ae5619bdp-14"),
    (64, 8, 2, "0x1.5a5e4ae5619bdp-12"),
    (1 << 20, 2, 3, "0x1.1cd8fa79e4c75p-8"),
    (1 << 20, 8, 3, "0x1.1cd8fa79e4c7cp-6"),
])
def test_pingpong_rank_resumes_only_to_run_its_own_code(
        monkeypatch, size, rounds, wakes_per_round, duration):
    """Across two nodes, an injection resumes its rank once, when the NIC
    service ends, and a parked receive once, after its receive cost; a
    rendezvous send's wait adds one more.  So each rank wakes 1 + 2n
    times at 64 B and 1 + 3n at 1 MiB (1 + 4n and 1 + 5n when every
    timer took a rank step of its own), at unchanged virtual times."""
    wakes = _count_wakes(monkeypatch)
    res = run_program(2, _co_pingpong(size, rounds),
                      cluster=ClusterSpec(2, 1))
    assert wakes == {f"rank{r}": 1 + wakes_per_round * rounds
                     for r in (0, 1)}
    assert res.duration.hex() == duration


def _count_made(monkeypatch, *classes) -> Counter:
    """Count instances of *classes* built from now on, by class name."""
    made: Counter = Counter()
    for cls in classes:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


@pytest.mark.parametrize("rounds, duration", [
    (1, "0x1.5a5e4ae5619bfp-15"),
    (8, "0x1.5a5e4ae5619bdp-12"),
])
def test_eager_pingpong_builds_no_event_or_status_per_message(
        monkeypatch, rounds, duration):
    """A request is its own completion event and its own posted receive,
    and the route chain links envelopes without an event: the only
    SimEvents of a 2-rank eager ping-pong are the ranks' ``finished``
    events, and it builds no Status when no status is read."""
    made = _count_made(monkeypatch, SimEvent, Status)

    def program(ctx):
        peer = 1 - ctx.rank
        for _ in range(rounds):
            if ctx.rank == 1:
                yield from ctx.comm.irecv(peer, 0).co_wait()
            yield from ctx.comm.co_send(b"x" * 64, peer, 0)
            if ctx.rank == 0:
                yield from ctx.comm.irecv(peer, 0).co_wait()

    res = run_program(2, program, cluster=ClusterSpec(2, 1))
    assert made == {"SimEvent": 2}
    assert res.duration.hex() == duration


def test_split_status_is_built_on_first_read_with_the_local_source(
        monkeypatch):
    """``Request.status`` on a split group's receive reports the
    sender's rank in the group, and the Status is built when it is first
    read, once."""
    made = _count_made(monkeypatch, Status)

    def program(ctx):
        sub = yield from ctx.comm.co_split(color=ctx.rank % 2)
        if sub.rank == 1:  # global ranks 2 and 3
            yield from sub.co_send(b"data", 0, 5)
            return None
        req = sub.irecv(ANY_SOURCE, ANY_TAG)
        yield from req.co_wait()
        before = made["Status"]  # one rank step: no other rank runs
        status = req.status
        return status, req.status is status, made["Status"] - before

    res = run_program(4, program, cluster=ClusterSpec(2, 2))
    assert res.results[:2] == [(Status(1, 5, 4), True, 1)] * 2


def test_failure_while_a_rank_is_parked_mid_injection(monkeypatch):
    """Rank 0 raises while rank 1's send is parked behind its NIC turn:
    the job fails with rank 0's error, and closing the parked generator
    raises nothing of its own."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    parked = []

    def program(ctx):
        if ctx.rank == 1:
            yield from ctx.comm.co_send(b"x" * 64, 0, 0)
            return
        yield _Sleep(1e-9)  # after rank 1 parked, before its NIC turn
        parked.append(ctx._cluster.node_of(1).active_senders)
        raise KeyError("rank 0 failed")

    with pytest.raises(ProcessFailed) as failed:
        run_program(2, program, cluster=ClusterSpec(2, 1))
    gc.collect()
    assert parked == [1]
    cause = failed.value.__cause__
    assert type(cause) is KeyError and cause.args == ("rank 0 failed",)
    assert unraisable == []


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
