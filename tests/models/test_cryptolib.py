"""Crypto library profile tests, including the paper's own consistency
identities (§V-A arithmetic)."""

import pytest

from repro.models.cryptolib import (
    COMPILERS,
    PROFILED_LIBRARIES,
    get_profile,
    profile_for_network,
)
from repro.util.units import KiB, MiB


def test_all_libraries_and_compilers_resolve():
    for lib in PROFILED_LIBRARIES:
        for compiler in COMPILERS:
            p = get_profile(lib, compiler)
            assert p.library == lib
            assert p.encdec_throughput(16 * KiB) > 0


def test_paper_anchor_boringssl():
    p = get_profile("boringssl", "gcc")
    # §V-A quotes 1332 MB/s @16KB and 1381 MB/s @2MB.
    assert p.encdec_throughput(16 * KiB) == pytest.approx(1332e6, rel=1e-6)
    assert p.encdec_throughput(2 * MiB) == pytest.approx(1381e6, rel=1e-6)


def test_paper_anchor_libsodium():
    p = get_profile("libsodium", "gcc")
    assert p.encdec_throughput(256) == pytest.approx(409.67e6, rel=1e-6)
    assert p.encdec_throughput(2 * MiB) == pytest.approx(583e6, rel=1e-6)


def test_paper_anchor_cryptopp():
    p = get_profile("cryptopp", "gcc")
    assert p.encdec_throughput(16 * KiB) == pytest.approx(568e6, rel=1e-6)
    assert p.encdec_throughput(2 * MiB) == pytest.approx(273e6, rel=1e-6)


def test_library_ranking_holds_everywhere():
    """The paper's headline: BoringSSL > Libsodium > CryptoPP at the
    benchmarked sizes 256B..2MB (gcc)."""
    b = get_profile("boringssl", "gcc")
    l = get_profile("libsodium", "gcc")
    c = get_profile("cryptopp", "gcc")
    for size in (256, 1 * KiB, 16 * KiB, 2 * MiB):
        assert b.encdec_throughput(size) > l.encdec_throughput(size)
        assert l.encdec_throughput(size) >= c.encdec_throughput(size) * 0.99


def test_openssl_tracks_boringssl():
    """OpenSSL has BoringSSL's calibration under both compilers (§V:
    "very similar performance"): the same curve points and framing.

    ``scale`` and ``predict`` therefore draw no OpenSSL cells where they
    draw BoringSSL's.  If this fails because OpenSSL got a calibration
    of its own, return OpenSSL to their library sweeps
    (``paperdata.LIBS`` in ``experiments/scale.py`` and
    ``experiments/predict.py``).
    """
    for compiler in COMPILERS:
        openssl = get_profile("openssl", compiler)
        boringssl = get_profile("boringssl", compiler)
        assert openssl.encdec_curve.anchors == boringssl.encdec_curve.anchors
        assert openssl.framing_overhead == boringssl.framing_overhead


def test_mvapich_improves_cryptopp_above_64kb():
    """§V-B: MVAPICH compiler dramatically improves CryptoPP > 64 KB."""
    gcc = get_profile("cryptopp", "gcc")
    mv = get_profile("cryptopp", "mvapich")
    for size in (256 * KiB, 1 * MiB, 2 * MiB):
        assert mv.encdec_throughput(size) > gcc.encdec_throughput(size)
    # Below 64 KB the curves agree.
    for size in (256, 16 * KiB):
        assert mv.encdec_throughput(size) == pytest.approx(
            gcc.encdec_throughput(size)
        )


def test_bcast_identity_boringssl_4mb():
    """§V-A: BoringSSL spends ~4298 us on enc+dec of a 4 MB Bcast
    payload (and ~298x its 16 KB cost)."""
    p = get_profile("boringssl", "gcc")
    t_4mb = p.encdec_time(4 * MiB)
    assert t_4mb == pytest.approx(4298e-6, rel=0.05)
    t_16kb = p.encdec_time(16 * KiB)
    assert t_4mb / t_16kb == pytest.approx(298, rel=0.15)


def test_alltoall_identity_cryptopp_4mb():
    """§V-A: CryptoPP spends ~1,331,103 us encrypting/decrypting 63
    4 MB messages in Encrypted_Alltoall (~459x its 16 KB cost)."""
    p = get_profile("cryptopp", "gcc")
    total = 63 * p.encdec_time(4 * MiB)
    assert total == pytest.approx(1_331_103e-6, rel=0.05)


def test_encrypt_decrypt_symmetric():
    p = get_profile("boringssl")
    assert p.encrypt_time(1 * MiB) == p.decrypt_time(1 * MiB)
    assert p.encdec_time(1 * MiB) == 2 * p.encrypt_time(1 * MiB)


def test_framing_overhead_dominates_tiny_messages():
    """Table I: CryptoPP's 1 B ping-pong adds ~14.5 us one-way."""
    p = get_profile("cryptopp", "gcc")
    added = p.encdec_time(1)
    assert 10e-6 < added < 25e-6
    b = get_profile("boringssl", "gcc")
    assert 1e-6 < b.encdec_time(1) < 4e-6


def test_key128_faster_than_256():
    p256 = get_profile("boringssl", key_bits=256)
    p128 = get_profile("boringssl", key_bits=128)
    assert p128.encrypt_time(1 * MiB) < p256.encrypt_time(1 * MiB)


def test_libsodium_rejects_128():
    with pytest.raises(ValueError, match="only supports AES-GCM-256"):
        get_profile("libsodium", key_bits=128)


def test_zero_size_costs_only_framing():
    p = get_profile("boringssl")
    assert p.encrypt_time(0) == pytest.approx(p.framing_overhead)


def test_validation():
    with pytest.raises(ValueError):
        get_profile("rot13")
    with pytest.raises(ValueError):
        get_profile("boringssl", "icc")
    with pytest.raises(ValueError):
        get_profile("boringssl", key_bits=192)
    with pytest.raises(ValueError):
        get_profile("boringssl").encrypt_time(-1)


def test_profile_for_network_selects_compiler():
    assert profile_for_network("cryptopp", "infiniband").compiler == "mvapich"
    assert profile_for_network("cryptopp", "ethernet").compiler == "gcc"
