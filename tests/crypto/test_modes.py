"""Tests for the classical (insecure) modes used by prior encrypted-MPI
systems, plus padding."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import CryptoError
from repro.crypto.modes import CBC, CTR, ECB, pkcs7_pad, pkcs7_unpad

KEY = bytes(range(32))


# ---- PKCS#7 -----------------------------------------------------------------


@given(st.binary(max_size=100))
def test_pkcs7_roundtrip(data):
    assert pkcs7_unpad(pkcs7_pad(data)) == data


def test_pkcs7_always_pads():
    assert len(pkcs7_pad(bytes(16))) == 32
    assert pkcs7_pad(b"")[-1] == 16


def test_pkcs7_invalid_padding_rejected():
    with pytest.raises(CryptoError):
        pkcs7_unpad(bytes(16))  # last byte 0 is invalid
    with pytest.raises(CryptoError):
        pkcs7_unpad(b"\x01" * 15 + b"\x05")
    with pytest.raises(CryptoError):
        pkcs7_unpad(b"")
    with pytest.raises(CryptoError):
        pkcs7_unpad(b"\x01" * 17)


# ---- ECB --------------------------------------------------------------------


@given(st.binary(max_size=200))
@settings(max_examples=20, deadline=None)
def test_ecb_roundtrip(data):
    ecb = ECB(KEY)
    assert ecb.decrypt(ecb.encrypt(data)) == data


def test_ecb_is_deterministic():
    ecb = ECB(KEY)
    assert ecb.encrypt(b"same message!") == ecb.encrypt(b"same message!")


def test_ecb_leaks_equal_blocks():
    """The structural leak the paper condemns (ES-MPICH2)."""
    ecb = ECB(KEY)
    pt = b"A" * 16 + b"B" * 16 + b"A" * 16
    ct = ecb.encrypt(pt)
    assert ct[0:16] == ct[32:48]
    assert ct[0:16] != ct[16:32]


def test_ecb_matches_openssl():
    """A round-trip cannot catch a wrong block order or key schedule."""
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    pt = bytes(range(256)) * 4 + b"tail"
    enc = Cipher(algorithms.AES(KEY), modes.ECB()).encryptor()
    assert ECB(KEY).encrypt(pt) == enc.update(pkcs7_pad(pt)) + enc.finalize()


def test_ecb_rejects_partial_block():
    with pytest.raises(CryptoError):
        ECB(KEY).decrypt(b"x" * 17)


# ---- CBC --------------------------------------------------------------------


@given(st.binary(max_size=200))
@settings(max_examples=20, deadline=None)
def test_cbc_roundtrip(data):
    cbc = CBC(KEY)
    assert cbc.decrypt(cbc.encrypt(data)) == data


def test_cbc_randomized_by_iv():
    cbc = CBC(KEY)
    assert cbc.encrypt(b"same message!") != cbc.encrypt(b"same message!")


def test_cbc_deterministic_with_fixed_iv():
    cbc = CBC(KEY)
    iv = bytes(16)
    assert cbc.encrypt(b"msg", iv) == cbc.encrypt(b"msg", iv)


def test_cbc_bad_iv_length_rejected():
    with pytest.raises(CryptoError):
        CBC(KEY).encrypt(b"msg", iv=b"short")


def test_cbc_truncated_data_rejected():
    with pytest.raises(CryptoError):
        CBC(KEY).decrypt(bytes(16))  # IV only, no ciphertext block


def test_cbc_has_no_integrity():
    """Tampering CBC ciphertext yields *some* decryption, not an error
    (as long as the padding stays valid) — the §II integrity gap."""
    cbc = CBC(KEY)
    data = bytearray(cbc.encrypt(b"X" * 48))
    data[0] ^= 0xFF  # garble the IV -> garbles plaintext block 0 silently
    tampered = cbc.decrypt(bytes(data))
    assert tampered != b"X" * 48  # changed...
    assert len(tampered) == 48  # ...but accepted


# ---- CTR --------------------------------------------------------------------


@given(st.binary(max_size=200))
@settings(max_examples=20, deadline=None)
def test_ctr_roundtrip(data):
    ctr = CTR(KEY)
    assert ctr.decrypt(ctr.encrypt(data)) == data


def test_ctr_matches_openssl():
    """A wrong keystream would still round-trip; OpenSSL's CTR over the
    16-byte block ``nonce || 0^64`` pins the bytes themselves."""
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    nonce = bytes(range(8))
    pt = bytes(range(256)) * 4 + b"tail"
    enc = Cipher(algorithms.AES(KEY), modes.CTR(nonce + bytes(8))).encryptor()
    assert CTR(KEY).encrypt(pt, nonce) == nonce + enc.update(pt) + enc.finalize()


def test_ctr_no_padding_overhead():
    ctr = CTR(KEY)
    assert len(ctr.encrypt(b"12345")) == 8 + 5  # nonce + same-size ct


def test_ctr_nonce_reuse_leaks_xor():
    ctr = CTR(KEY)
    nonce = bytes(8)
    c1 = ctr.encrypt(b"AAAAAAAA", nonce)[8:]
    c2 = ctr.encrypt(b"BBBBBBBB", nonce)[8:]
    xor = bytes(a ^ b for a, b in zip(c1, c2))
    assert xor == bytes(a ^ b for a, b in zip(b"AAAAAAAA", b"BBBBBBBB"))


def test_ctr_bad_nonce_length():
    with pytest.raises(CryptoError):
        CTR(KEY).encrypt(b"m", nonce=b"123")
    with pytest.raises(CryptoError):
        CTR(KEY).decrypt(b"1234")
