"""ChaCha20-Poly1305 tests against the RFC 8439 vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chacha import (
    ChaCha20Poly1305,
    chacha20_block,
    chacha20_xor,
    poly1305_mac,
)
from repro.crypto.errors import AuthenticationError, CryptoError, KeyFormatError

# RFC 8439 §2.3.2 block test vector.
RFC_KEY = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
)
RFC_NONCE_BLOCK = bytes.fromhex("000000090000004a00000000")


def test_chacha20_block_rfc_vector():
    block = chacha20_block(RFC_KEY, 1, RFC_NONCE_BLOCK)
    assert block.hex() == (
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )


def test_chacha20_encrypt_rfc_vector():
    # RFC 8439 §2.4.2: the "sunscreen" plaintext.
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    ct = chacha20_xor(RFC_KEY, 1, nonce, plaintext)
    assert ct.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")
    assert chacha20_xor(RFC_KEY, 1, nonce, ct) == plaintext


def test_poly1305_rfc_vector():
    # RFC 8439 §2.5.2.
    key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
    )
    msg = b"Cryptographic Forum Research Group"
    assert poly1305_mac(key, msg).hex() == "a8061dc1305136c6c22b8baf0c0127a9"


def test_aead_rfc_vector():
    # RFC 8439 §2.8.2.
    key = bytes.fromhex(
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
    )
    nonce = bytes.fromhex("070000004041424344454647")
    aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    aead = ChaCha20Poly1305(key)
    out = aead.encrypt(nonce, plaintext, aad)
    assert out[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"
    assert out[:16].hex() == "d31a8d34648e60db7b86afbc53ef7ec2"
    assert aead.decrypt(nonce, out, aad) == plaintext


def test_tamper_detection():
    aead = ChaCha20Poly1305(bytes(32))
    out = bytearray(aead.encrypt(bytes(12), b"payload", b"hdr"))
    out[3] ^= 1
    with pytest.raises(AuthenticationError):
        aead.decrypt(bytes(12), bytes(out), b"hdr")


def test_wrong_aad_rejected():
    aead = ChaCha20Poly1305(bytes(32))
    out = aead.encrypt(bytes(12), b"payload", b"a")
    with pytest.raises(AuthenticationError):
        aead.decrypt(bytes(12), out, b"b")


def test_short_ciphertext_rejected():
    with pytest.raises(AuthenticationError):
        ChaCha20Poly1305(bytes(32)).decrypt(bytes(12), b"short")


def test_validation():
    with pytest.raises(KeyFormatError):
        ChaCha20Poly1305(bytes(16))
    with pytest.raises(KeyFormatError):
        ChaCha20Poly1305("nope")  # type: ignore[arg-type]
    with pytest.raises(CryptoError):
        chacha20_block(bytes(32), 0, bytes(8))
    with pytest.raises(CryptoError):
        chacha20_block(bytes(32), 2**32, bytes(12))
    with pytest.raises(KeyFormatError):
        poly1305_mac(bytes(16), b"msg")


def test_xor_rejects_a_block_counter_past_2_32():
    """The 32-bit block counter never wraps: 64 bytes from counter
    2**32 - 1 use its last value, one byte more needs 2**32."""
    key, nonce = bytes(32), bytes(12)
    assert len(chacha20_xor(key, 2**32 - 1, nonce, bytes(64))) == 64
    with pytest.raises(CryptoError):
        chacha20_xor(key, 2**32 - 1, nonce, bytes(65))
    with pytest.raises(CryptoError):
        chacha20_xor(key, 2**32 - 4, nonce, bytes(5 * 64))


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=300),
    aad=st.binary(max_size=50),
)
def test_roundtrip_property(key, nonce, plaintext, aad):
    aead = ChaCha20Poly1305(key)
    assert aead.decrypt(nonce, aead.encrypt(nonce, plaintext, aad), aad) == plaintext


def test_matches_cryptography_if_available():
    cryptography = pytest.importorskip("cryptography")  # noqa: F841
    from cryptography.hazmat.primitives.ciphers.aead import (
        ChaCha20Poly1305 as Ossl,
    )
    import os

    for _ in range(10):
        key, nonce = os.urandom(32), os.urandom(12)
        pt, aad = os.urandom(99), os.urandom(17)
        assert ChaCha20Poly1305(key).encrypt(nonce, pt, aad) == Ossl(key).encrypt(
            nonce, pt, aad
        )


def test_ciphertext_same_layout_as_gcm():
    """Both AEADs produce ct || 16-byte tag, so the encrypted MPI frame
    format is cipher-agnostic."""
    aead = ChaCha20Poly1305(bytes(32))
    assert len(aead.encrypt(bytes(12), b"12345")) == 5 + 16
