"""OSU Multiple-Pair Bandwidth (§V): N senders on one node stream to N
receivers on another through windows of non-blocking sends.

Per OSU's osu_mbw_mr: in each iteration a sender posts ``window``
isends of the given size to its receiver and waits for a short reply
before the next iteration; aggregate uni-directional throughput is
reported.  The +28 encrypted-wire bytes are excluded, as in the paper.
"""

from __future__ import annotations

from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi.plan import modeled_plan
from repro.models.cpu import parse_cluster_spec
from repro.models.network import FabricSpec
from repro.simmpi import run_program
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

MULTIPAIR_CLUSTER = parse_cluster_spec("2x8")

#: OSU defaults: 64-message window; the paper runs 100 iterations — in
#: the deterministic simulator two post-warmup iterations suffice.
DEFAULT_WINDOW = 64
DEFAULT_ITERS = 2


def multipair_aggregate_throughput(
    size: int,
    pairs: int,
    *,
    network: str | FabricSpec = "ethernet",
    library: str | None = None,
    key_bits: int = 256,
    window: int = DEFAULT_WINDOW,
    iters: int = DEFAULT_ITERS,
    crypto: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> float:
    """Aggregate uni-directional throughput in bytes/s over all pairs.

    *crypto* selects the encrypted runs' pipelining discipline (see
    :func:`repro.workloads.pingpong.pingpong_oneway_time`); *faults*
    and *resilience* work as there — required together on lossy
    fabrics, where the reported goodput then includes retransmission
    stalls.
    """
    if not 1 <= pairs <= MULTIPAIR_CLUSTER.cores_per_node:
        raise ValueError(
            f"pairs must be in [1, {MULTIPAIR_CLUSTER.cores_per_node}], got {pairs}"
        )
    if size < 1:
        raise ValueError(f"message size must be >= 1, got {size}")
    payload = b"\x5a" * size
    nranks = 2 * pairs
    per_pair_rate: list[float] = [0.0] * pairs
    plan = modeled_plan(library, crypto)

    def co_program(ctx):
        # Senders are ranks [0, pairs) on node 0; receivers are
        # [pairs, 2*pairs) on node 1 (block placement puts the first
        # `pairs` ranks on node 0 only if pairs <= cores; we place
        # explicitly through a round-robin-safe mapping below).
        comm = ctx.comm if plan is None else EncryptedComm(
            ctx, SecurityConfig(key_bits=key_bits, crypto=plan),
        )
        if ctx.rank < pairs:  # sender
            peer = ctx.rank + pairs
            # warmup window
            reqs = []
            for _ in range(window):
                reqs.append((yield from comm.co_isend(payload, peer, tag=0)))
            yield from comm.co_waitall(reqs)
            yield from comm.irecv(peer, 0).co_wait()
            t0 = ctx.now
            for _ in range(iters):
                reqs = []
                for _ in range(window):
                    reqs.append((yield from comm.co_isend(payload, peer, tag=0)))
                yield from comm.co_waitall(reqs)
                yield from comm.irecv(peer, 0).co_wait()
            elapsed = ctx.now - t0
            per_pair_rate[ctx.rank] = size * window * iters / elapsed
        else:  # receiver
            peer = ctx.rank - pairs
            for _ in range(iters + 1):
                yield from comm.co_waitall(
                    [comm.irecv(peer, 0) for _ in range(window)])
                sreq = yield from comm.co_isend(b"\x00" * 4, peer, tag=0)
                yield from sreq.co_wait()

    run_program(
        nranks,
        co_program,
        network=network,
        cluster=MULTIPAIR_CLUSTER,
        fault_injector=faults.build() if faults is not None else None,
        resilience=resilience,
    )
    return sum(per_pair_rate)
