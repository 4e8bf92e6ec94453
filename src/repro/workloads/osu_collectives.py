"""OSU collective latency for (Encrypted_)Bcast and (Encrypted_)Alltoall.

Mirrors osu_bcast / osu_alltoall: per iteration every rank times the
collective call; the reported latency is the average over ranks and
iterations, with a barrier between iterations.  Each experiment
measurement in the paper is 100 iterations; the simulator is
deterministic so a couple of post-warmup iterations give the same mean.
"""

from __future__ import annotations

from repro.encmpi import EncryptedComm, SecurityConfig
from repro.encmpi.plan import modeled_plan
from repro.models.cpu import PAPER_CLUSTER, ClusterSpec
from repro.simmpi import run_program

DEFAULT_ITERS = 2

#: every collective the paper's §IV instruments
SUPPORTED_OPS = ("bcast", "alltoall", "allgather", "alltoallv")


def collective_latency(
    op: str,
    size: int,
    *,
    network: str = "ethernet",
    nranks: int = 64,
    cluster: ClusterSpec = PAPER_CLUSTER,
    library: str | None = None,
    key_bits: int = 256,
    iters: int = DEFAULT_ITERS,
) -> float:
    """Average collective latency in seconds (mean over ranks & iters).

    ``op`` is "bcast" (message of *size* from rank 0) or "alltoall"
    (*size* bytes per destination per rank).  ``library=None`` runs the
    unencrypted baseline.
    """
    if op not in SUPPORTED_OPS:
        raise ValueError(f"op must be one of {SUPPORTED_OPS}, got {op!r}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    payload = b"\x3c" * size
    per_rank_mean: list[float] = [0.0] * nranks
    plan = modeled_plan(library)

    def program(ctx):
        comm = ctx.comm if plan is None else EncryptedComm(
            ctx, SecurityConfig(key_bits=key_bits, crypto=plan),
        )

        def co_run_op():
            if op == "bcast":
                data = payload if ctx.rank == 0 else None
                yield from comm.co_bcast(data, 0, nbytes=size)
            elif op == "allgather":
                yield from comm.co_allgather(payload)
            elif op == "alltoallv":
                # osu_alltoallv's default: uniform counts through the
                # v-variant interface.
                yield from comm.co_alltoallv([payload] * ctx.size)
            else:
                yield from comm.co_alltoall([payload] * ctx.size)

        yield from co_run_op()  # warmup
        yield from ctx.comm.co_barrier()
        total = 0.0
        for _ in range(iters):
            t0 = ctx.now
            yield from co_run_op()
            total += ctx.now - t0
            yield from ctx.comm.co_barrier()
        per_rank_mean[ctx.rank] = total / iters

    run_program(nranks, program, network=network, cluster=cluster)
    return sum(per_rank_mean) / nranks
