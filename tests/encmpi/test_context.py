"""Encrypted MPI layer tests: framing, overheads, semantics, tampering."""

import pytest

from repro import api
from repro.crypto.errors import AuthenticationError
from repro.des.process import ProcessFailed
from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.models.cpu import ClusterSpec, TWO_NODE_CLUSTER
from repro.simmpi import run_program
from repro.util.units import KiB, MiB

CLUSTER4 = ClusterSpec(nodes=4, cores_per_node=4)


def _run(nranks, prog, cluster=TWO_NODE_CLUSTER, network="ethernet"):
    return run_program(nranks, prog, cluster=cluster, network=network).results


# ---- config -----------------------------------------------------------------


def test_default_config_matches_paper_setup():
    cfg = SecurityConfig()
    assert cfg.library == "boringssl"
    assert cfg.key_bits == 256
    assert cfg.nonce_strategy == "random"
    assert len(cfg.key) == 32


def test_config_validation():
    with pytest.raises(ValueError):
        SecurityConfig(library="des3")
    with pytest.raises(ValueError):
        SecurityConfig(key_bits=512)
    with pytest.raises(ValueError):
        SecurityConfig(library="libsodium", key_bits=128)
    with pytest.raises(ValueError):
        SecurityConfig(nonce_strategy="hope")
    with pytest.raises(ValueError):
        SecurityConfig(crypto=CryptoPlan(bytework="imaginary"))
    with pytest.raises(ValueError):
        SecurityConfig(key=b"short")


def test_config_with_key():
    cfg = SecurityConfig().with_key(bytes(16))
    assert cfg.key_bits == 128
    assert cfg.key == bytes(16)


# ---- point-to-point ------------------------------------------------------------


@pytest.mark.parametrize("mode", ["real", "modeled"])
def test_send_recv_roundtrip(mode):
    payload = b"secret hpc data" * 10

    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework=mode)))
        if ctx.rank == 0:
            enc.send(payload, 1, tag=4)
        else:
            data, status = enc.recv(0, 4)
            return data

    assert _run(2, prog)[1] == payload


def test_wire_carries_28_extra_bytes():
    """Algorithm 1: an ℓ-byte message crosses the fabric as ℓ+28 bytes."""
    captured = {}

    def prog(ctx):
        enc = EncryptedComm(ctx)
        if ctx.rank == 0:
            enc.send(b"x" * 100, 1)
        else:
            inner = ctx.comm.irecv(0)
            wire = inner.wait()
            captured["wire_len"] = len(wire)
            captured["env_wire_bytes"] = inner._match_env.wire_bytes

    _run(2, prog)
    assert captured["wire_len"] == 128
    assert captured["env_wire_bytes"] == 128


def test_ciphertext_differs_from_plaintext_on_the_wire():
    def prog(ctx):
        enc = EncryptedComm(ctx)
        if ctx.rank == 0:
            enc.send(b"A" * 64, 1)
        else:
            wire = ctx.comm.irecv(0).wait()
            return wire

    wire = _run(2, prog)[1]
    assert b"A" * 64 not in wire


def test_modeled_mode_ships_placeholder_frame():
    def prog(ctx):
        cfg = SecurityConfig(crypto=CryptoPlan(bytework="modeled"))
        enc = EncryptedComm(ctx, cfg)
        if ctx.rank == 0:
            enc.send(b"B" * 64, 1)
        else:
            return ctx.comm.irecv(0).wait()

    wire = _run(2, prog)[1]
    assert len(wire) == 64 + 28
    assert wire[12:-16] == b"B" * 64


def test_tampering_detected_end_to_end():
    """Flip one wire bit in flight: the receiver must reject."""

    def prog(ctx):
        enc = EncryptedComm(ctx)
        if ctx.rank == 0:
            enc.send(b"launch code 0000", 1)
        else:
            wire = bytearray(ctx.comm.irecv(0).wait())
            wire[20] ^= 0x01  # adversary-in-the-middle
            enc._decrypt_charged(bytes(wire))

    with pytest.raises(ProcessFailed, match="AuthenticationError|tamper"):
        _run(2, prog)


@pytest.mark.parametrize("mode", ["serial", "cryptmpi"])
def test_failed_encrypted_receive_fails_every_wait(mode):
    """A receive whose frame fails authentication raises on its first
    wait and on every later one, as a plain request re-raises its
    failure; a second wait must not read as a success."""

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.enc.co_send(b"x" * 64, 1, 0)
            return None
        req = ctx.enc.irecv(0, 0)
        raised = []
        for _ in range(2):
            try:
                yield from req.co_wait()
            except AuthenticationError as exc:
                raised.append(exc)
            else:
                raised.append(None)
        return raised

    security = api.SecurityConfig(crypto=CryptoPlan(mode=mode,
                                                    bytework="real"))
    res = api.run_job(prog, nranks=2, security=security,
                      faults=api.FaultPlan(corrupt=1.0,
                                           corrupt_bit=8 * 40 + 3))
    first, second = res.results[1]
    assert isinstance(first, AuthenticationError)
    assert second is first


def test_isend_irecv_decrypt_in_wait():
    payload = b"nonblocking payload"

    def prog(ctx):
        enc = EncryptedComm(ctx)
        if ctx.rank == 0:
            req = enc.isend(payload, 1, tag=2)
            req.wait()
        else:
            req = enc.irecv(0, 2)
            return req.wait()

    assert _run(2, prog)[1] == payload


def test_waitall_and_sendrecv():
    def prog(ctx):
        enc = EncryptedComm(ctx)
        other = 1 - ctx.rank
        data, _status = enc.sendrecv(f"hi from {ctx.rank}".encode(), other, other)
        reqs = [enc.isend(bytes([i]), other, tag=10 + i) for i in range(3)]
        enc.waitall(reqs)
        got = [enc.recv(other, 10 + i)[0] for i in range(3)]
        return (data, got)

    results = _run(2, prog)
    assert results[0][0] == b"hi from 1"
    assert results[1][0] == b"hi from 0"
    assert results[0][1] == [bytes([i]) for i in range(3)]


def test_encryption_charges_time():
    """An encrypted ping-pong must be slower than the baseline, and the
    slowdown must follow the library ranking."""
    size = 2 * MiB
    times = {}

    def make(libname):
        def prog(ctx):
            cfg = SecurityConfig(library=libname,
                                 crypto=CryptoPlan(bytework="modeled"))
            enc = EncryptedComm(ctx, cfg)
            if ctx.rank == 0:
                t0 = ctx.now
                enc.send(b"z" * size, 1)
                enc.recv(1)
                times[libname] = ctx.now - t0
            else:
                data, _status = enc.recv(0)
                enc.send(data, 0)

        return prog

    def baseline(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            ctx.comm.send(b"z" * size, 1)
            ctx.comm.recv(1)
            times["baseline"] = ctx.now - t0
        else:
            data, _status = ctx.comm.recv(0)
            ctx.comm.send(data, 0)

    _run(2, baseline)
    for lib in ("boringssl", "libsodium", "cryptopp"):
        _run(2, make(lib))
    assert times["baseline"] < times["boringssl"]
    assert times["boringssl"] < times["libsodium"]
    assert times["libsodium"] < times["cryptopp"]


def test_counters_track_traffic():
    counters = {}

    def prog(ctx):
        enc = EncryptedComm(ctx)
        if ctx.rank == 0:
            enc.send(b"x" * 100, 1)
            enc.send(b"y" * 50, 1)
            counters["sent"] = (enc.messages_sent, enc.bytes_encrypted)
        else:
            enc.recv(0)
            enc.recv(0)
            counters["recv"] = (enc.messages_received, enc.bytes_decrypted)

    _run(2, prog)
    assert counters["sent"] == (2, 150)
    assert counters["recv"] == (2, 150)


def test_bind_header_rejects_retagged_message():
    """With header binding, moving a ciphertext to a different tag
    breaks authentication (an extension beyond the paper)."""

    def prog(ctx):
        cfg = SecurityConfig(bind_header=True)
        enc = EncryptedComm(ctx, cfg)
        if ctx.rank == 0:
            enc.send(b"bound", 1, tag=1)
        else:
            wire = ctx.comm.irecv(0, 1).wait()
            # Receiver tries to open it as if it were tag 2.
            enc._decrypt_charged(wire, enc._aad_for_peer(0, 2))

    with pytest.raises(ProcessFailed):
        _run(2, prog)


# ---- encrypted collectives --------------------------------------------------------


@pytest.mark.parametrize("mode", ["real", "modeled"])
@pytest.mark.parametrize("size", [0, 1, 300, 20 * KiB])
def test_encrypted_bcast(mode, size):
    payload = bytes(i % 256 for i in range(size))

    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework=mode)))
        data = payload if ctx.rank == 0 else None
        return enc.bcast(data, 0, nbytes=size)

    results = _run(8, prog, cluster=CLUSTER4)
    assert all(r == payload for r in results)


@pytest.mark.parametrize("mode", ["real", "modeled"])
def test_encrypted_allgather(mode):
    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework=mode)))
        return enc.allgather(f"blk{ctx.rank}".encode())

    results = _run(4, prog, cluster=CLUSTER4)
    expected = [f"blk{i}".encode() for i in range(4)]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("mode", ["real", "modeled"])
def test_encrypted_alltoall(mode):
    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework=mode)))
        chunks = [f"{ctx.rank}->{d}".encode() for d in range(ctx.size)]
        return enc.alltoall(chunks)

    results = _run(4, prog, cluster=CLUSTER4)
    for r in range(4):
        assert results[r] == [f"{s}->{r}".encode() for s in range(4)]


def test_encrypted_alltoallv():
    def prog(ctx):
        enc = EncryptedComm(ctx)
        chunks = [bytes([ctx.rank]) * (d + 1) for d in range(ctx.size)]
        return enc.alltoallv(chunks)

    results = _run(4, prog, cluster=CLUSTER4)
    for r in range(4):
        assert results[r] == [bytes([s]) * (r + 1) for s in range(4)]


def test_encrypted_bcast_nonroot_requires_nbytes():
    def prog(ctx):
        enc = EncryptedComm(ctx)
        data = b"abc" if ctx.rank == 0 else None
        return enc.bcast(data, 0)

    with pytest.raises(ProcessFailed):
        _run(2, prog)
