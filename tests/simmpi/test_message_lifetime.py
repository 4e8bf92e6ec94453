"""A simulated message is freed by reference counting.

Each job runs with the cyclic collector disabled, once at 2 and once at
8 iterations, and ``gc.collect()`` then counts the unreachable objects
the job left.  A job's own cycles (scheduler and engine, each rank's
process and generator) are there at any iteration count; a message
that leaves a cycle behind (an envelope holding a closure over itself,
a request holding a hook over itself) makes the count grow with the
iterations.

Resilient jobs are left out on purpose: ``ReliabilityManager`` keeps
every flight, with its reseal closure and plaintext, until the job
ends, because a NACK can follow the ack, so their garbage grows with
the message count by design.
"""

import gc

import pytest

from repro import api
from repro.encmpi import CryptoPlan
from repro.util.units import KiB, MiB
from repro.workloads.multipair import multipair_aggregate_throughput
from repro.workloads.pingpong import pingpong_oneway_time


def _shm_pingpong(iters: int) -> None:
    """A ping-pong between two ranks of one node (shared memory)."""
    def program(ctx):
        peer = 1 - ctx.rank
        for _ in range(iters):
            if ctx.rank == 0:
                yield from ctx.comm.co_send(b"x" * 64, peer)
                yield from ctx.comm.co_recv(peer)
            else:
                yield from ctx.comm.co_recv(peer)
                yield from ctx.comm.co_send(b"x" * 64, peer)

    api.run_job(program, nranks=2, cluster=api.parse_cluster_spec("1x2"))


CRYPTMPI = CryptoPlan(library="boringssl", mode="cryptmpi",
                      bytework="modeled", chunk_bytes=256 * KiB,
                      helper_cores=2)

JOBS = {
    "eager": lambda n: pingpong_oneway_time(64, iters=n),
    "shm": _shm_pingpong,
    "rendezvous": lambda n: pingpong_oneway_time(MiB, iters=n),
    "serial_encrypted": lambda n: pingpong_oneway_time(
        64, iters=n, library="boringssl"),
    "cryptmpi": lambda n: pingpong_oneway_time(
        MiB, iters=n, library="boringssl", crypto=CRYPTMPI),
    "multipair": lambda n: multipair_aggregate_throughput(
        64, 4, window=8, iters=n),
}


def _cyclic_garbage(job, iters: int) -> int:
    """Unreachable objects one run of *job* leaves to the collector."""
    gc.collect()
    gc.disable()
    try:
        job(iters)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_messages_leave_no_cyclic_garbage(name):
    job = JOBS[name]
    job(2)  # one-time imports and cost memos stay out of the count
    assert _cyclic_garbage(job, 8) == _cyclic_garbage(job, 2)
