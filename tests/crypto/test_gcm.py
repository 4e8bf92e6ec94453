"""AES-GCM tests: NIST SP 800-38D vectors, tamper detection, properties."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import AuthenticationError
from repro.crypto.aes import AES
from repro.crypto.gcm import AESGCM, _GHash, _gf128_mul, _inc32

# NIST SP 800-38D AES-256 test vectors (cases 13, 14, 16 of the GCM spec
# appendix as commonly numbered).
KEY_ZERO_256 = bytes(32)
NONCE_ZERO = bytes(12)

NIST_KEY = bytes.fromhex(
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"
)
NIST_IV = bytes.fromhex("cafebabefacedbaddecaf888")
NIST_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
)
NIST_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
NIST_CT_AND_TAG = bytes.fromhex(
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
    "76fc6ece0f4e1768cddf8853bb2d551b"
)


def test_nist_case_empty_plaintext_tag_only():
    gcm = AESGCM(KEY_ZERO_256)
    assert gcm.encrypt(NONCE_ZERO, b"").hex() == "530f8afbc74536b9a963b4f1c4cb738b"


def test_nist_case_zero_block():
    gcm = AESGCM(KEY_ZERO_256)
    out = gcm.encrypt(NONCE_ZERO, bytes(16))
    assert out.hex() == (
        "cea7403d4d606b6e074ec5d3baf39d18" "d0d1c8a799996bf0265b98b5d48ab919"
    )


def test_nist_case_with_aad_roundtrip():
    gcm = AESGCM(NIST_KEY)
    out = gcm.encrypt(NIST_IV, NIST_PT, NIST_AAD)
    assert out == NIST_CT_AND_TAG
    assert gcm.decrypt(NIST_IV, out, NIST_AAD) == NIST_PT


def test_ciphertext_is_plaintext_plus_16_bytes():
    gcm = AESGCM(KEY_ZERO_256)
    for n in (0, 1, 15, 16, 17, 100):
        assert len(gcm.encrypt(NONCE_ZERO, bytes(n))) == n + 16


@pytest.mark.parametrize("flip_index", [0, 5, -17, -1])
def test_any_single_bit_flip_is_detected(flip_index):
    gcm = AESGCM(NIST_KEY)
    out = bytearray(gcm.encrypt(NIST_IV, b"attack at dawn", NIST_AAD))
    out[flip_index] ^= 0x01
    with pytest.raises(AuthenticationError):
        gcm.decrypt(NIST_IV, bytes(out), NIST_AAD)


def test_wrong_aad_is_detected():
    gcm = AESGCM(NIST_KEY)
    out = gcm.encrypt(NIST_IV, b"payload", b"header-1")
    with pytest.raises(AuthenticationError):
        gcm.decrypt(NIST_IV, out, b"header-2")


def test_wrong_nonce_is_detected():
    gcm = AESGCM(NIST_KEY)
    out = gcm.encrypt(NIST_IV, b"payload")
    other = bytes([NIST_IV[0] ^ 1]) + NIST_IV[1:]
    with pytest.raises(AuthenticationError):
        gcm.decrypt(other, out)


def test_wrong_key_is_detected():
    out = AESGCM(NIST_KEY).encrypt(NIST_IV, b"payload")
    with pytest.raises(AuthenticationError):
        AESGCM(KEY_ZERO_256).decrypt(NIST_IV, out)


def test_truncated_ciphertext_rejected():
    gcm = AESGCM(NIST_KEY)
    with pytest.raises(AuthenticationError):
        gcm.decrypt(NIST_IV, b"short")


def test_non_96_bit_nonce_supported():
    gcm = AESGCM(NIST_KEY)
    nonce = bytes(range(8))
    out = gcm.encrypt(nonce, b"hello")
    assert gcm.decrypt(nonce, out) == b"hello"


@pytest.mark.parametrize("nonce_len", [8, 13, 16, 31, 64, 128])
def test_non_96_bit_nonces_match_openssl(nonce_len):
    """Nonces other than 96 bits derive J0 through GHASH (SP 800-38D
    §7.1); ``cryptography`` accepts 8 to 128 bytes."""
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM as Ossl

    nonce = bytes(range(nonce_len))
    for n in (0, 1, 17, 1025):
        pt = bytes(range(256)) * (n // 256) + bytes(n % 256)
        out = AESGCM(NIST_KEY).encrypt(nonce, pt, NIST_AAD)
        assert out == Ossl(NIST_KEY).encrypt(nonce, pt, NIST_AAD)
        assert AESGCM(NIST_KEY).decrypt(nonce, out, NIST_AAD) == pt


def test_counter_blocks_wrap_the_low_word_like_inc32(monkeypatch):
    """A J0 whose low word is 0xFFFFFFFE: the CTR blocks after it wrap
    to 0 in the low 32 bits only, exactly as repeated inc_32 does, and
    the tag is masked with E_K(J0) itself."""
    j0 = bytes(range(12)) + b"\xff\xff\xff\xfe"
    monkeypatch.setattr(AESGCM, "_j0", lambda self, nonce: j0)
    gcm = AESGCM(NIST_KEY)
    pt = bytes(range(5 * 16 + 3))
    out = gcm.encrypt(NIST_IV, pt)
    ct, tag = out[:-16], out[-16:]
    aes = AES(NIST_KEY)
    block, keystream = j0, b""
    for _ in range(6):
        block = _inc32(block)
        keystream += aes.encrypt_block(block)
    assert block == bytes(range(12)) + b"\x00\x00\x00\x04"  # wrapped
    assert ct == bytes(a ^ b for a, b in zip(pt, keystream))
    gh = _GHash(gcm._tables)
    gh.update(ct)
    s = gh.digest_with_lengths(0, len(ct) * 8)
    assert tag == bytes(a ^ b for a, b in zip(s, aes.encrypt_block(j0)))
    assert gcm.decrypt(NIST_IV, out) == pt


def test_gf128_identity_and_absorbing():
    x = 0x0123456789ABCDEF0123456789ABCDEF
    one = 1 << 127  # the GCM representation of "1" (MSB-first bit order)
    assert _gf128_mul(x, one) == x
    assert _gf128_mul(x, 0) == 0


@given(st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1))
@settings(max_examples=50)
def test_gf128_commutative(a, b):
    assert _gf128_mul(a, b) == _gf128_mul(b, a)


def test_inc32_wraps_only_low_word():
    block = bytes(12) + b"\xff\xff\xff\xff"
    assert _inc32(block) == bytes(16)
    block2 = bytes(range(12)) + b"\x00\x00\x00\x07"
    assert _inc32(block2) == bytes(range(12)) + b"\x00\x00\x00\x08"


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=200),
    aad=st.binary(max_size=64),
)
def test_roundtrip_property(key, nonce, plaintext, aad):
    gcm = AESGCM(key)
    assert gcm.decrypt(nonce, gcm.encrypt(nonce, plaintext, aad), aad) == plaintext


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=120),
)
def test_matches_openssl_exactly(key, nonce, plaintext):
    cryptography = pytest.importorskip("cryptography")  # noqa: F841
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM as Ossl

    assert AESGCM(key).encrypt(nonce, plaintext) == Ossl(key).encrypt(
        nonce, plaintext, None
    )


def test_nonce_reuse_leaks_xor_of_plaintexts():
    """Documents *why* nonce reuse is catastrophic (GCM is CTR inside):
    same key+nonce means same keystream, so C1^C2 = P1^P2."""
    gcm = AESGCM(NIST_KEY)
    p1 = b"first secret msg"
    p2 = b"second secret!!!"
    c1 = gcm.encrypt(NIST_IV, p1)[:-16]
    c2 = gcm.encrypt(NIST_IV, p2)[:-16]
    xor_ct = bytes(a ^ b for a, b in zip(c1, c2))
    xor_pt = bytes(a ^ b for a, b in zip(p1, p2))
    assert xor_ct == xor_pt
