"""Fluid (closed-form) collective model for the large-rank regime.

The message-level simulator models every point-to-point transfer of a
collective individually — for an N-rank alltoall that is N² envelopes,
N² matching-engine entries, and N² flow events.  At the paper's scale
(≤ 64 ranks) that is the right fidelity; at the ``scale`` experiment's
4096 ranks it is 16.7M messages per collective and the state alone
dwarfs the machine.

This module trades per-message fidelity for a **hierarchical fluid
model** evaluated directly: the collective's traffic is aggregated per
node, and every phase is closed-form arithmetic over the calibrated
:class:`~repro.models.network.NetworkModel` and
:class:`~repro.models.cryptolib.CryptoLibraryProfile` curves.  The
contention structure the exact simulator resolves event by event is
kept in aggregate:

- every rank seals N chunks on its own core before injecting and opens
  N after arrival (Algorithm 1 encrypts/decrypts every block, own
  included), as ``EncryptedComm.co_alltoall`` does under any plan;
- each node's NIC carries ``rpn·(N-rpn)`` messages in each direction —
  the egress/ingress drain at ``nic_capacity`` and the serialized NIC
  message engine are both modeled, whichever is slower dominates;
- intra-node blocks ride shared memory (per-message overhead + copy).

The phases per rank: seal + inject (rank core, serialized), then the
slower of the shm exchange and the inter-node drain + latency tail,
then opening the received blocks.  Every rank of the symmetric
alltoall sees the same phases, so their sum is the collective's
latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import WIRE_OVERHEAD
from repro.models.cpu import ClusterSpec
from repro.models.cryptolib import CryptoLibraryProfile
from repro.models.network import NetworkModel


@dataclass(frozen=True)
class FluidPhases:
    """Closed-form per-rank phase durations of one fluid collective."""

    nranks: int
    msg_bytes: int
    #: rank-core seconds before injection: seals + per-message overheads
    cpu_send_seconds: float
    #: wire phase: slower of the shm exchange and the inter-node drain
    exchange_seconds: float
    #: rank-core seconds after arrival: opening received blocks
    cpu_recv_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.cpu_send_seconds + self.exchange_seconds + self.cpu_recv_seconds


def fluid_alltoall_phases(
    nranks: int,
    msg_bytes: int,
    *,
    cluster: ClusterSpec,
    network: NetworkModel,
    profile: CryptoLibraryProfile | None = None,
) -> FluidPhases:
    """Phase durations of one Encrypted_Alltoall round at *nranks*.

    *profile* is the crypto cost model; None models the unencrypted
    baseline.
    """
    if nranks < 2:
        raise ValueError(f"alltoall needs >= 2 ranks, got {nranks}")
    if msg_bytes < 1:
        raise ValueError(f"msg_bytes must be >= 1, got {msg_bytes}")
    cluster.validate_ranks(nranks)
    # block placement spreads ranks as evenly as the spec allows; the
    # fluid model uses the dominant (fullest-node) density
    rpn = -(-nranks // cluster.nodes)
    remote_peers = nranks - rpn
    local_peers = rpn - 1
    wire = msg_bytes + (WIRE_OVERHEAD if profile is not None else 0)

    # -- crypto: N seals before, N opens after (Algorithm 1) ------------
    seal = open_ = 0.0
    if profile is not None:
        seal = nranks * profile.encrypt_time(msg_bytes)
        open_ = nranks * profile.decrypt_time(msg_bytes)

    # -- rank-core injection costs --------------------------------------
    inject = (
        remote_peers * network.send_overhead(wire)
        + local_peers * network.shm_msg_overhead
    )

    # -- inter-node drain: bandwidth vs the serialized message engine ---
    node_bytes = rpn * remote_peers * wire
    bw_drain = node_bytes / network.nic_capacity
    engine_drain = rpn * remote_peers * network.nic_service_time(rpn)
    inter = 0.0
    if remote_peers:
        inter = (
            max(bw_drain, engine_drain)
            + network.latency
            + network.proto_delay(wire)
        )

    # -- intra-node exchange via shared memory --------------------------
    shm = local_peers * (
        network.shm_msg_overhead + network.shm_delivery_delay(msg_bytes)
    )

    return FluidPhases(
        nranks=nranks,
        msg_bytes=msg_bytes,
        cpu_send_seconds=seal + inject,
        exchange_seconds=max(inter, shm),
        cpu_recv_seconds=open_ + remote_peers * network.recv_overhead(wire),
    )
