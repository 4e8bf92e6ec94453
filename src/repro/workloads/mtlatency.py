"""OMB-Py-style multi-threaded latency (osu_latency_mt pattern).

OSU's multi-threaded latency test keeps *T* receiver threads serving
one sender: at any moment *T* requests are in flight and each gets its
reply before the next round.  The simulator models a thread as a
concurrent in-flight message — per round the client posts ``channels``
non-blocking sends, waits for all of them, then collects ``channels``
replies (one per server "thread").  On a clean fat link extra channels
are nearly free; on the hostile fabrics (WAN jitter, IoT's narrow
uplink) they queue behind each other and the per-round latency grows —
which is exactly the effect the ``hostile`` experiment sweeps.
"""

from __future__ import annotations

# verify-sizes: 2  (a strictly two-rank exchange; ranks >= 2 never exist)

from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi.plan import modeled_plan, refuse_modeled_corruption
from repro.models.cpu import parse_cluster_spec
from repro.models.network import FabricSpec
from repro.simmpi import run_program
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

#: Two nodes, client and server on different nodes (as in ping-pong).
MTLATENCY_CLUSTER = parse_cluster_spec("2x8")

#: One tag for every channel: the channels model concurrent threads on
#: one connection, and FIFO matching per (src, tag) is exactly MPI's
#: guarantee for that shape.
TAG_MTLATENCY = 13

DEFAULT_CHANNELS = 4
DEFAULT_ITERS = 4


def mtlatency_round_time(
    size: int,
    *,
    channels: int = DEFAULT_CHANNELS,
    network: str | FabricSpec = "ethernet",
    library: str | None = None,
    key_bits: int = 256,
    iters: int = DEFAULT_ITERS,
    crypto: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> float:
    """Mean round latency in seconds: one *channels*-wide send batch
    plus its replies, averaged over *iters* rounds (one warmup round
    excluded).  ``library=None`` is the plain-MPI baseline.
    """
    if size < 1:
        raise ValueError(f"message size must be >= 1, got {size}")
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    refuse_modeled_corruption(library, faults)
    payload = b"\x4d" * size
    out = [0.0]
    plan = modeled_plan(library, crypto)

    def co_program(ctx):
        comm = ctx.comm if plan is None else EncryptedComm(
            ctx, SecurityConfig(key_bits=key_bits, crypto=plan),
        )

        def co_send_batch(dest):
            reqs = []
            for _ in range(channels):
                reqs.append((yield from comm.co_isend(payload, dest,
                                                      tag=TAG_MTLATENCY)))
            yield from comm.co_waitall(reqs)

        def co_recv_batch(source):
            yield from comm.co_waitall(
                [comm.irecv(source, TAG_MTLATENCY) for _ in range(channels)])

        if ctx.rank == 0:  # client
            # one warmup round (excluded from timing)
            yield from co_send_batch(1)
            yield from co_recv_batch(1)
            t0 = ctx.now
            for _ in range(iters):
                yield from co_send_batch(1)
                yield from co_recv_batch(1)
            out[0] = (ctx.now - t0) / iters
        else:  # server: `channels` concurrent service threads
            for _ in range(iters + 1):
                yield from co_recv_batch(0)
                yield from co_send_batch(0)

    run_program(
        2,
        co_program,
        network=network,
        cluster=MTLATENCY_CLUSTER,
        fault_injector=faults.build() if faults is not None else None,
        resilience=resilience,
    )
    return out[0]
