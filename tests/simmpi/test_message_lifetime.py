"""A simulated message is freed by reference counting.

Each job runs with the cyclic collector disabled, once at 2 and once at
8 iterations, and ``gc.collect()`` then counts the unreachable objects
the job left.  A job's own cycles (scheduler and engine, each rank's
process and generator) are there at any iteration count; a message
that leaves a cycle behind (an envelope holding a closure over itself,
a request holding a hook over itself) makes the count grow with the
iterations.
"""

import gc

import pytest

from repro import api
from repro.encmpi import CryptoPlan
from repro.util.units import KiB, MiB
from repro.workloads.multipair import multipair_aggregate_throughput
from repro.workloads.pingpong import pingpong_oneway_time


def _pingpong(iters: int, encrypted: bool = False):
    """A rank program: *iters* 64-byte round trips between ranks 0 and 1."""
    def program(ctx):
        comm = ctx.enc if encrypted else ctx.comm
        peer = 1 - ctx.rank
        for _ in range(iters):
            if ctx.rank == 0:
                yield from comm.co_send(b"x" * 64, peer)
                yield from comm.co_recv(peer)
            else:
                yield from comm.co_recv(peer)
                yield from comm.co_send(b"x" * 64, peer)

    return program


def _shm_pingpong(iters: int) -> None:
    """A ping-pong between two ranks of one node (shared memory)."""
    api.run_job(_pingpong(iters), nranks=2,
                cluster=api.parse_cluster_spec("1x2"))


def _resilient_pingpong(iters: int, security=None, corrupt: float = 0.0):
    """A ping-pong between two nodes on a lossy fabric, recovered by
    ack/retransmit (and, encrypted, by NACK and fresh-nonce reseal)."""
    return api.run_job(
        _pingpong(iters, encrypted=security is not None), nranks=2,
        cluster=api.parse_cluster_spec("2x1"), security=security,
        faults=api.FaultPlan(drop=0.05, corrupt=corrupt, seed=3,
                             corrupt_bit=99),
        resilience=api.ResiliencePolicy(max_retries=8, timeout=2e-4),
    ).resilience


SECURE = api.SecurityConfig(
    library="boringssl", backend="openssl", nonce_strategy="counter",
    bind_header=True, replay_window=64,
    crypto=CryptoPlan(library="boringssl", mode="serial", bytework="real"))

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
    "resilient": _resilient_pingpong,
    "resilient_encrypted": lambda n: _resilient_pingpong(
        n, SECURE, corrupt=0.05),
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


def test_resilient_jobs_recover_at_8_iterations():
    """At 8 iterations the resilient jobs above retransmit, and the
    encrypted one also NACKs a corrupted frame and reseals it."""
    assert JOBS["resilient"](8).retransmits
    report = JOBS["resilient_encrypted"](8)
    assert report.retransmits and report.nacks
