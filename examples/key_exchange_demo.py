#!/usr/bin/env python3
"""Key distribution over MPI — the paper's future work, implemented.

§IV: "we did not implement a key distribution mechanism; this is left
as a future work.  In our experiments, the encryption key was hardcoded
in the source code."

This example runs a 16-rank job that (1) agrees on a session key with
a Diffie-Hellman group exchange over the simulated fabric itself,
(2) re-keys for a second epoch, and (3) uses the derived keys for
encrypted collectives — reporting what the handshake costs in virtual
time on both fabrics.

Run:  python examples/key_exchange_demo.py
"""

from repro.encmpi import EncryptedComm, SecurityConfig
from repro.encmpi.keyexchange import establish_session_key
from repro.models.cpu import parse_cluster_spec
from repro.simmpi import run_program
from repro.util.units import format_time

CLUSTER = parse_cluster_spec("4x4")
NRANKS = 16


def job(ctx):
    t0 = ctx.now
    key_epoch0 = establish_session_key(ctx, epoch=0)
    handshake_time = ctx.now - t0

    # All ranks now share a key no one hardcoded; use it.
    enc = EncryptedComm(ctx, SecurityConfig().with_key(key_epoch0))
    # allgather blocks are equal-sized, as in MPI
    roster = enc.allgather(f"rank{ctx.rank:02d}".encode())
    assert roster == [f"rank{i:02d}".encode() for i in range(ctx.size)]

    # Re-key (e.g. after a checkpoint): a fresh epoch gives a fresh key.
    key_epoch1 = establish_session_key(ctx, epoch=1)
    assert key_epoch1 != key_epoch0

    enc2 = EncryptedComm(ctx, SecurityConfig().with_key(key_epoch1))
    payload = b"post-rekey broadcast"
    data = enc2.bcast(payload if ctx.rank == 0 else None, 0, nbytes=len(payload))
    assert data == payload
    return (handshake_time, key_epoch0.hex()[:16])


def main() -> None:
    for network in ("ethernet", "infiniband"):
        result = run_program(NRANKS, job, network=network, cluster=CLUSTER)
        times = [r[0] for r in result.results]
        fingerprints = {r[1] for r in result.results}
        assert len(fingerprints) == 1, "all ranks must derive the same key"
        print(
            f"{network:11s}: {NRANKS}-rank DH handshake took "
            f"{format_time(max(times))} (virtual), key fp "
            f"{fingerprints.pop()}…"
        )
    print("session keys derived via RFC3526 MODP-2048 + HKDF; encrypted "
          "collectives ran under both epochs")


if __name__ == "__main__":
    main()
