"""Encrypted_Alltoall beyond the testbed: the large-rank scaling curve.

The paper's testbed stops at 64 ranks / 8 nodes.  This experiment
extends the Encrypted_Alltoall latency curve to 4096 ranks / 1024
nodes per crypto backend, serial vs cryptmpi plan, by evaluating the
fluid collective model (:mod:`repro.models.fluid`) at each point.
Nothing is simulated: the 36 points are closed-form arithmetic.

Fidelity note: the fluid model is closed-form over the same calibrated
network and crypto-profile curves as the message-level simulator, so
the *shape* of the curves (crypto-bound at low rank density, wire- and
message-rate-bound as N² traffic grows) is what this artifact pins —
not packet-exact latencies.
"""

from __future__ import annotations

from repro.experiments.report import Artifact
from repro.models.cpu import parse_cluster_spec
from repro.models.cryptolib import PROFILED_LIBRARIES, profile_for_network
from repro.models.fluid import fluid_alltoall_phases
from repro.models.network import get_network
from repro.util.tables import Figure
from repro.util.units import KiB

#: 1024 nodes of the paper's 8-core machines: at 4096 ranks that is 4
#: ranks + 4 helper cores per node, so the cryptmpi plan has headroom
#: to show against serial at every point of the curve.
SCALE_CLUSTER = parse_cluster_spec("1024x8")

#: rank counts of the curve (the first is the paper's testbed ceiling)
RANK_POINTS = (64, 256, 1024, 4096)

#: per-peer alltoall block — the paper's medium collective size
MSG_BYTES = 16 * KiB


def _measure(nranks: int, network: str, library: str | None,
             pipelined: bool) -> float:
    """One fluid Encrypted_Alltoall; returns its latency in seconds."""
    profile = None
    if library is not None:
        profile = profile_for_network(library, network)
    return fluid_alltoall_phases(
        nranks,
        MSG_BYTES,
        cluster=SCALE_CLUSTER,
        network=get_network(network),
        profile=profile,
        pipelined=pipelined,
    ).total_seconds


def scale(network: str = "ethernet") -> Artifact:
    title = (
        f"Encrypted_Alltoall {MSG_BYTES // KiB}KB to {RANK_POINTS[-1]} ranks "
        f"({SCALE_CLUSTER.token()} fluid model), {network}"
    )
    fig = Figure(title, "ranks", "seconds", log_y=True, plain_x=True)
    fig.add_series(
        "baseline", [(n, _measure(n, network, None, False)) for n in RANK_POINTS]
    )
    for lib in PROFILED_LIBRARIES:
        for mode, pipelined in (("serial", False), ("cryptmpi", True)):
            fig.add_series(
                f"{lib}/{mode}",
                [(n, _measure(n, network, lib, pipelined)) for n in RANK_POINTS],
            )
    art = Artifact("scale", title, fig)
    art.notes.append(
        "fluid (closed-form) collective model, evaluated without "
        "simulation; curve shape, not packet-exact latency — the "
        "message-level simulator covers the <=64-rank points of "
        "tables III/VII"
    )
    return art
