"""Extra artifact: the §IV collective the paper instruments but never
tabulates.

§IV lists Encrypted_Allgather and Encrypted_Alltoallv among the
implemented routines, yet §V only reports Bcast and Alltoall.  This
artifact completes the record for Encrypted_Allgather: average timings
at the paper's 64-rank/8-node scale, per library.  Encrypted_Alltoallv
runs Encrypted_Alltoall's code, so its timings are Table III's (and
VII's) columns and are not simulated again here.
"""

from __future__ import annotations

from repro.experiments.report import Artifact
from repro.util.tables import Table
from repro.util.units import KiB, format_bytes
from repro.workloads.osu_collectives import collective_latency

SIZES = (1, 16 * KiB)
ROWS = (
    ("Unencrypted", None),
    ("BoringSSL", "boringssl"),
    ("Libsodium", "libsodium"),
    ("CryptoPP", "cryptopp"),
)


def unreported_collectives(network: str = "ethernet") -> Artifact:
    title = (
        "Encrypted_Allgather average timing (us), "
        f"64 ranks / 8 nodes, {network} — implemented in §IV, unreported in §V"
    )
    table = Table(title, [f"ag {format_bytes(s)}" for s in SIZES])
    for label, lib in ROWS:
        table.add_row(label, [
            collective_latency("allgather", size, network=network,
                               library=lib, iters=1) * 1e6
            for size in SIZES
        ])
    art = Artifact("extras", title, table)
    art.notes.append(
        "no paper reference rows exist for allgather; the library "
        "ordering is the checkable shape"
    )
    art.notes.append(
        "Encrypted_Alltoallv runs Encrypted_Alltoall's code, so its "
        "timings are table3's (and table7's) columns"
    )
    return art
