"""Encrypted_Alltoall beyond the testbed: the large-rank scaling curve.

The paper's testbed stops at 64 ranks / 8 nodes.  This experiment
extends the Encrypted_Alltoall latency curve to 4096 ranks / 1024
nodes for the baseline and the paper's three tabulated libraries by
evaluating the fluid collective model (:mod:`repro.models.fluid`) at
each point.  Nothing is simulated: the 16 points are closed-form
arithmetic.

Fidelity note: the fluid model is closed-form over the same calibrated
network and crypto-profile curves as the message-level simulator, so
the *shape* of the curves (crypto-bound at low rank density, wire- and
message-rate-bound as N² traffic grows) is what this artifact pins —
not packet-exact latencies.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.report import Artifact
from repro.models.cpu import parse_cluster_spec
from repro.models.cryptolib import profile_for_network
from repro.models.fluid import fluid_alltoall_phases
from repro.models.network import get_network
from repro.util.tables import Figure
from repro.util.units import KiB

#: 1024 nodes of the paper's 8-core machines (4 ranks per node at the
#: 4096-rank point, one per node at 64)
SCALE_CLUSTER = parse_cluster_spec("1024x8")

#: rank counts of the curve (the first is the paper's testbed ceiling)
RANK_POINTS = (64, 256, 1024, 4096)

#: per-peer alltoall block — the paper's medium collective size
MSG_BYTES = 16 * KiB


def _measure(nranks: int, network: str, library: str | None) -> float:
    """One fluid Encrypted_Alltoall; returns its latency in seconds."""
    return fluid_alltoall_phases(
        nranks,
        MSG_BYTES,
        cluster=SCALE_CLUSTER,
        network=get_network(network),
        profile=profile_for_network(library, network) if library else None,
    ).total_seconds


def scale(network: str = "ethernet") -> Artifact:
    title = (
        f"Encrypted_Alltoall {MSG_BYTES // KiB}KB to {RANK_POINTS[-1]} ranks "
        f"({SCALE_CLUSTER.token()} fluid model), {network}"
    )
    fig = Figure(title, "ranks", "seconds", log_y=True, plain_x=True)
    for lib in (None,) + paperdata.LIBS:
        fig.add_series(
            lib or "baseline",
            [(n, _measure(n, network, lib)) for n in RANK_POINTS],
        )
    art = Artifact("scale", title, fig)
    art.notes.append(
        "fluid (closed-form) collective model, evaluated without "
        "simulation; curve shape, not packet-exact latency — the "
        "64-rank point has one rank per node on 1024x8, not tables "
        "III/VII's 8 per node on 8x8, and the message-level simulator "
        "puts that cell about 0.62 ms lower on every curve"
    )
    art.notes.append(
        "OpenSSL is not drawn: it has BoringSSL's calibration, so its "
        "curve is BoringSSL's"
    )
    return art
