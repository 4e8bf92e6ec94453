"""End-to-end integration tests: the paper's own arithmetic identities
must hold through the full simulator stack (not just the models)."""

import pytest

from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program
from repro.util.units import KiB, MiB
from repro.workloads.osu_collectives import collective_latency
from repro.workloads.pingpong import pingpong_oneway_time

SMALL = ClusterSpec(nodes=4, cores_per_node=4)


def test_section5a_bandwidth_ratio_estimate_ethernet():
    """§V-A derives the 2MB overhead from the ratio r of enc-dec
    throughput to baseline throughput as (1+r)/r; the full simulation
    must agree with that back-of-envelope within a few percent."""
    base = pingpong_oneway_time(2 * MiB, network="ethernet")
    enc = pingpong_oneway_time(2 * MiB, network="ethernet", library="boringssl")
    # r = 1381/1038 => slowdown (1+1.32)/1.32 ≈ 1.757
    assert enc / base == pytest.approx((1 + 1.32) / 1.32, rel=0.03)


def test_section5b_bandwidth_ratio_estimate_infiniband():
    base = pingpong_oneway_time(2 * MiB, network="infiniband")
    enc = pingpong_oneway_time(2 * MiB, network="infiniband", library="boringssl")
    # r = 1381/3023 ≈ 0.46 => slowdown (1+0.46)/0.46 ≈ 3.17
    assert enc / base == pytest.approx((1 + 0.46) / 0.46, rel=0.05)


def test_bcast_crypto_cost_bounded_by_one_encdec():
    """§V-A models Encrypted_Bcast as ordinary bcast + one enc (root)
    + one dec (each rank).  In the full simulation part of that cost
    hides in contention slack (the root's encryption staggers ranks'
    entry into the ring allgather, easing NIC sharing), so the measured
    delta is positive but bounded by the serial enc+dec cost."""
    from repro.models.cryptolib import get_profile

    size = 256 * KiB
    base = collective_latency("bcast", size, nranks=16, cluster=SMALL, iters=1)
    enc = collective_latency(
        "bcast", size, nranks=16, cluster=SMALL, library="boringssl", iters=1
    )
    expected = get_profile("boringssl", "gcc").encdec_time(size)
    assert 0.15 * expected < (enc - base) < 1.2 * expected


def test_alltoall_crypto_cost_tracks_p_encdecs():
    """Algorithm 1: each rank encrypts p chunks and decrypts p chunks;
    the pairwise exchange additionally serializes neighbours' crypto,
    so the measured delta brackets the serial estimate."""
    from repro.models.cryptolib import get_profile

    size = 64 * KiB
    p = 16
    base = collective_latency("alltoall", size, nranks=p, cluster=SMALL, iters=1)
    enc = collective_latency(
        "alltoall", size, nranks=p, cluster=SMALL, library="boringssl", iters=1
    )
    profile = get_profile("boringssl", "gcc")
    expected = p * profile.encdec_time(size)
    assert 0.5 * expected < (enc - base) < 2.0 * expected


def test_real_crypto_mode_matches_modeled_timing():
    """Virtual time must not depend on whether payload bytes are really
    encrypted (mode changes wall-clock cost only)."""
    def make(mode):
        def prog(ctx):
            enc = EncryptedComm(ctx, SecurityConfig(crypto=CryptoPlan(bytework=mode)))
            if ctx.rank == 0:
                enc.send(b"q" * 32 * 1024, 1)
                return ctx.now
            enc.recv(0)
            return ctx.now

        return prog

    t_real = run_program(2, make("real"), cluster=SMALL).results[1]
    t_model = run_program(2, make("modeled"), cluster=SMALL).results[1]
    assert t_real == pytest.approx(t_model, rel=1e-12)


def test_determinism_across_runs():
    """Two identical simulations produce identical virtual timings."""
    def prog(ctx):
        cfg = SecurityConfig(crypto=CryptoPlan(bytework="modeled"))
        enc = EncryptedComm(ctx, cfg)
        chunks = [b"d" * 2048 for _ in range(ctx.size)]
        enc.alltoall(chunks)
        ctx.comm.barrier()
        return ctx.now

    a = run_program(8, prog, cluster=SMALL).results
    b = run_program(8, prog, cluster=SMALL).results
    assert a == b


def test_scalability_settings_run():
    """The paper's scalability grid (4r/4n, 16r/4n, 16r/8n, 64r/8n) —
    exercised here at the three smaller settings."""
    from repro.models.cpu import PAPER_CLUSTER

    def prog(ctx):
        data = b"s" * 1024 if ctx.rank == 0 else None
        out = ctx.comm.bcast(data, 0, nbytes=1024)
        assert len(out) == 1024
        return ctx.now

    for nranks, cluster in (
        (4, ClusterSpec(4, 8)),
        (16, ClusterSpec(4, 8)),
        (16, PAPER_CLUSTER),
    ):
        res = run_program(nranks, prog, cluster=cluster)
        assert res.duration > 0
