"""The ping-pong benchmark (§V): two ranks on two nodes, blocking
send/recv back and forth; reports uni-directional throughput.

For encrypted runs the +28 wire bytes are excluded from the throughput
numerator, exactly as the paper does ("Those bytes are excluded in the
throughput calculation").
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

#: Two nodes, processes on different nodes ("All ping-pong results use
#: two processes on different nodes", §V).
PINGPONG_CLUSTER = parse_cluster_spec("2x8")

#: The paper iterates 10,000 / 1,000 times for statistics on real
#: hardware; the simulator is deterministic and stationary, so a few
#: round trips (after one warmup) give identical means.
DEFAULT_ITERS = 4

#: single tag of the ping-pong exchange (one channel, both directions)
TAG_PINGPONG = 0


def pingpong_oneway_time(
    size: int,
    *,
    network: str | FabricSpec = "ethernet",
    library: str | None = None,
    key_bits: int = 256,
    iters: int = DEFAULT_ITERS,
    crypto: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> float:
    """Mean one-way time in seconds; ``library=None`` is the baseline.

    *crypto* selects the pipelining discipline of the encrypted runs
    (serial vs cryptmpi chunking); its library/bytework are overridden
    by the benchmark's own *library* argument and the simulator's
    modeled byte work.  ``None`` adopts the process-wide default plan
    (campaign ``--crypto``).

    *faults* runs every round trip under a seeded
    :class:`~repro.simmpi.faults.FaultPlan`; pair it with a
    *resilience* policy so dropped envelopes are retransmitted instead
    of deadlocking the exchange.  The mean then includes the
    retransmission stalls — the quantity the analytical predictor's
    expected-retransmission closed form targets.
    """
    if size < 0:
        raise ValueError(f"negative message size {size}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    refuse_modeled_corruption(library, faults)
    payload = b"\xa5" * size
    plan = modeled_plan(library, crypto)

    def co_program(ctx):
        comm = ctx.comm if plan is None else EncryptedComm(
            ctx, SecurityConfig(key_bits=key_bits, crypto=plan),
        )
        if ctx.rank == 0:
            # one warmup round trip (excluded)
            yield from comm.co_send(payload, 1, tag=TAG_PINGPONG)
            yield from comm.co_recv(1, TAG_PINGPONG)
            t0 = ctx.now
            for _ in range(iters):
                yield from comm.co_send(payload, 1, tag=TAG_PINGPONG)
                data, _st = yield from comm.co_recv(1, TAG_PINGPONG)
                assert len(data) == size
            return (ctx.now - t0) / (2 * iters)
        for _ in range(iters + 1):
            data, _st = yield from comm.co_recv(0, TAG_PINGPONG)
            yield from comm.co_send(data, 0, tag=TAG_PINGPONG)
        return None

    result = run_program(
        2,
        co_program,
        network=network,
        cluster=PINGPONG_CLUSTER,
        fault_injector=faults.build() if faults is not None else None,
        resilience=resilience,
    )
    return result.results[0]


def pingpong_throughput(
    size: int,
    *,
    network: str | FabricSpec = "ethernet",
    library: str | None = None,
    key_bits: int = 256,
    iters: int = DEFAULT_ITERS,
    crypto: CryptoPlan | None = None,
) -> float:
    """Uni-directional throughput in bytes/s (plaintext bytes only)."""
    t = pingpong_oneway_time(
        size, network=network, library=library, key_bits=key_bits,
        iters=iters, crypto=crypto,
    )
    return max(size, 1) / t if size else 0.0
