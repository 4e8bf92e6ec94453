#!/usr/bin/env python3
"""Communication characterization of a NAS proxy.

Uses the simulator's tracing facility to answer, for the FT benchmark
at a reduced scale: how many messages, how many bytes, which routes are
hottest, and what the encrypted +28-byte framing costs on the wire —
the kind of data the paper's overhead analysis is built on.

Run:  python examples/comm_characterization.py
"""

from repro.crypto.aead import WIRE_OVERHEAD
from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.models.cpu import parse_cluster_spec
from repro.simmpi import run_program
from repro.workloads.nas.common import get_benchmark

CLUSTER = parse_cluster_spec("4x4")
NRANKS = 16


def characterize(library: str | None):
    bench = get_benchmark("ft")

    def prog(ctx):
        if library is not None:
            ctx.enc = EncryptedComm(
                ctx,
                SecurityConfig(
                    crypto=CryptoPlan(library=library, bytework="modeled")
                ),
            )
        yield from bench.skeleton(ctx)  # one iteration

    result = run_program(NRANKS, prog, cluster=CLUSTER, trace=True)
    return result.trace


def main() -> None:
    print(f"=== FT class C skeleton, one iteration, {NRANKS} ranks ===\n")
    print("-- unencrypted --")
    base = characterize(None).comm
    print(base.render())

    print("\n-- encrypted (BoringSSL) --")
    recorder = characterize("boringssl")
    enc = recorder.comm
    print(enc.render())

    # Every rank seals all NRANKS blocks of the alltoall transpose, but
    # its own block never leaves the rank; the checksum allreduce is
    # plain MPI (see repro.workloads.nas.common.co_allreduce_bytes).
    seals = sum(c["aead_seals"] for c in recorder.counters_snapshot().values())
    frames = seals - NRANKS
    plain = enc.total_messages - frames
    added = enc.total_wire_bytes - base.total_wire_bytes
    assert added == frames * WIRE_OVERHEAD, (added, frames)
    print(
        f"\nwire bytes added by encryption: {added} = {frames} frames x "
        f"{WIRE_OVERHEAD} B ({seals} seals less the {NRANKS} alltoall "
        f"blocks that stay on their rank; the other {plain} of "
        f"{enc.total_messages} messages, the checksum allreduce, travel "
        f"plain) = {added / base.total_wire_bytes * 100:.5f}% of the "
        "traffic — for bandwidth-bound benchmarks the nonce+tag framing "
        "is negligible; the cost is the encryption *time*, not the bytes."
    )
    heavy = base.heaviest_routes(1)[0]
    print(
        f"hottest route {heavy[0][0]}->{heavy[0][1]} carries "
        f"{heavy[1].payload_bytes / 1e6:.2f} MB per iteration — the "
        "alltoall transpose dominates FT, which is why its encrypted "
        "overhead tracks the alltoall tables rather than ping-pong."
    )


if __name__ == "__main__":
    main()
